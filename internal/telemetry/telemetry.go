// Package telemetry is FlexWAN's data stream module (§4.4 of the paper):
// it periodically collects optical-layer key performance indicators from
// every device, stores them in an online time-series store, and turns
// loss-of-signal transitions into fiber-cut events for the controller.
//
// The paper's production deployment uses a scalable collector with
// one-second granularity feeding an online database (the Kalfa system);
// here the store is an in-memory ring buffer per series and the collector
// is a polling loop plus the devices' asynchronous alarms, which exercises
// the same detection path: power collapse on a fiber's amplifiers →
// fiber-cut event → restoration.
package telemetry

import (
	"encoding/json"
	"sync"
	"time"

	"flexwan/internal/device"
	"flexwan/internal/devmodel"
	"flexwan/internal/netconf"
)

// Point is one sample of one metric on one device.
type Point struct {
	Device string
	Metric string
	Time   time.Time
	Value  float64
}

// Store keeps a bounded history per (device, metric) series. It is safe
// for concurrent use.
type Store struct {
	capacity int

	mu     sync.Mutex
	series map[seriesKey][]Point
}

type seriesKey struct {
	device, metric string
}

// NewStore returns a store holding up to capacity points per series
// (older points are evicted).
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Store{capacity: capacity, series: make(map[seriesKey][]Point)}
}

// Append records a sample.
func (s *Store) Append(p Point) {
	k := seriesKey{p.Device, p.Metric}
	s.mu.Lock()
	defer s.mu.Unlock()
	pts := append(s.series[k], p)
	if len(pts) > s.capacity {
		pts = pts[len(pts)-s.capacity:]
	}
	s.series[k] = pts
}

// Latest returns the most recent sample of the series.
func (s *Store) Latest(deviceID, metric string) (Point, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pts := s.series[seriesKey{deviceID, metric}]
	if len(pts) == 0 {
		return Point{}, false
	}
	return pts[len(pts)-1], true
}

// Since returns the samples of the series at or after t, oldest first.
func (s *Store) Since(deviceID, metric string, t time.Time) []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	pts := s.series[seriesKey{deviceID, metric}]
	var out []Point
	for _, p := range pts {
		if !p.Time.Before(t) {
			out = append(out, p)
		}
	}
	return out
}

// SeriesCount returns the number of distinct (device, metric) series.
func (s *Store) SeriesCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.series)
}

// Event is a detected optical-layer event.
type Event struct {
	// Kind is "fiber-cut" or "fiber-restored".
	Kind string
	// Fiber is the affected fiber segment, localized from the reporting
	// device's descriptor.
	Fiber string
	// Device is the device whose signal transition triggered detection.
	Device string
	Time   time.Time
}

// Sessions lends the collector the management session of each device it
// watches. The device manager implements it: it owns every session — it
// dials, checks the device's identity and closes — so each device carries
// one session for configuration and telemetry alike, and the collector
// never dials.
type Sessions interface {
	// Client returns the device's pooled session, live or dead, without
	// dialing.
	Client(id string) (*netconf.Client, bool)
	// LiveClient returns a live session to the device: the pooled one if
	// its connection still stands, otherwise one freshly dialed to the
	// registered address and greeted under the registered ID.
	LiveClient(id string) (*netconf.Client, error)
}

// Collector polls devices on a fixed interval, feeds the store, and
// emits fiber events. Detection is double-pathed as in production:
// asynchronous device alarms give sub-interval latency, and the polling
// loop catches anything the alarm stream missed.
type Collector struct {
	store    *Store
	interval time.Duration
	devices  []devmodel.Descriptor
	sessions Sessions
	events   chan Event

	// RedialInterval is the pause between requests for a live session
	// after a device's management session drops (default 100ms). Set
	// before Run.
	RedialInterval time.Duration

	// DegradeBERThreshold, when positive, arms early-warning detection:
	// a transponder whose pre-FEC BER rises above the threshold (while
	// still decoding) raises a "ber-degradation" event, and a
	// "ber-clear" once it falls back under half the threshold. This is
	// the OpTel-style ephemeral-event detection the paper's data stream
	// is built for — the channel is still error-free post-FEC, but its
	// margin is eroding. Set before Run.
	DegradeBERThreshold float64

	mu       sync.Mutex
	los      map[string]bool // device → last observed LOS
	degraded map[string]bool // device → BER alarm latched
	stopped  chan struct{}
	stopGrp  sync.WaitGroup
	once     sync.Once
}

// NewCollector builds a collector over the given devices, reached through
// the sessions they are registered with. Events are delivered on Events();
// call Run to start and Stop to halt. Run returns with every reachable
// device sampled once, so a baseline is in place before anything is cut.
// Alarms are heard from amplifiers only, the devices whose loss of signal
// localizes a fiber; a transponder's LOS is polled into the store. Stop
// the collector before closing the sessions' owner, or its alarm
// listeners redial into it.
func NewCollector(store *Store, interval time.Duration, devices []devmodel.Descriptor, sessions Sessions) *Collector {
	if interval <= 0 {
		interval = time.Second // the paper's one-second granularity
	}
	return &Collector{
		store:    store,
		interval: interval,
		devices:  devices,
		sessions: sessions,
		events:   make(chan Event, 256),
		los:      make(map[string]bool),
		degraded: make(map[string]bool),
		stopped:  make(chan struct{}),
	}
}

// Events streams detected fiber events.
func (c *Collector) Events() <-chan Event { return c.events }

// Run starts the amplifiers' alarm listeners, runs the first sweep and
// starts the polling loop, which sweeps again every interval. It returns
// once that first sweep has sampled every reachable device (or Stop
// abandoned it); collection continues until Stop.
func (c *Collector) Run() {
	for _, desc := range c.devices {
		if desc.Class != devmodel.ClassAmplifier {
			continue
		}
		c.stopGrp.Add(1)
		go func() {
			defer c.stopGrp.Done()
			c.listenAlarms(desc)
		}()
	}
	// Counted before the first sweep, so a Stop during it waits for the
	// loop that Run starts after it.
	c.stopGrp.Add(1)
	c.pollAll()
	go func() {
		defer c.stopGrp.Done()
		ticker := time.NewTicker(c.interval)
		defer ticker.Stop()
		for {
			select {
			case <-c.stopped:
				return
			case <-ticker.C:
				c.pollAll()
			}
		}
	}()
}

// Stop halts collection. The sessions stay with their owner. Safe to call
// more than once.
func (c *Collector) Stop() {
	c.once.Do(func() { close(c.stopped) })
	c.stopGrp.Wait()
}

func (c *Collector) redialInterval() time.Duration {
	if c.RedialInterval > 0 {
		return c.RedialInterval
	}
	return 100 * time.Millisecond
}

// listenAlarms consumes a device's asynchronous alarms for the life of
// the collector. A closed notification stream means the session died — a
// crashed or restarted device — so the listener asks for a live session
// every RedialInterval until the device answers again under its
// registered ID, rather than going deaf for the rest of the run.
func (c *Collector) listenAlarms(desc devmodel.Descriptor) {
	for {
		if client, err := c.sessions.LiveClient(desc.ID); err == nil {
			if !c.drainAlarms(client) {
				return
			}
		}
		select {
		case <-c.stopped:
			return
		case <-time.After(c.redialInterval()):
		}
	}
}

// drainAlarms consumes alarms until the collector stops (false) or the
// session drops (true).
func (c *Collector) drainAlarms(client *netconf.Client) bool {
	for {
		select {
		case <-c.stopped:
			return false
		case raw, ok := <-client.Notifications():
			if !ok {
				return true
			}
			var al device.Alarm
			if err := json.Unmarshal(raw, &al); err != nil {
				continue
			}
			c.observeLOS(al.Device, al.Fiber, al.Kind == "los")
		}
	}
}

// pollAll reads every device's state once over its pooled session. It
// never dials: a dead session fails its poll at once until a live one is
// back — an amplifier's alarm listener asks for it, and a transponder's
// comes with the controller's next RPC to it. The reads go out as one
// wave, so a sweep costs the slowest device's round trip and a hung device
// one call timeout; Stop abandons the wave. Samples and transitions are
// then applied in device order at the one time the sweep started, as a
// serial sweep would apply them.
func (c *Collector) pollAll() {
	now := time.Now()
	calls := make([]*netconf.Call, len(c.devices))
	// Read loops deliver without waiting, so done has room for every call.
	done := make(chan *netconf.Call, len(c.devices))
	inFlight := 0
	for i, desc := range c.devices {
		var out interface{}
		switch desc.Class {
		case devmodel.ClassTransponder:
			out = new(devmodel.TransponderState)
		case devmodel.ClassAmplifier:
			out = new(devmodel.AmplifierState)
		default:
			continue
		}
		client, ok := c.sessions.Client(desc.ID)
		if !ok {
			continue
		}
		calls[i] = client.Go(netconf.OpGetState, nil, out, done)
		inFlight++
	}
	for ; inFlight > 0; inFlight-- {
		select {
		case <-done:
		case <-c.stopped:
			return
		}
	}
	for i, call := range calls {
		if call == nil || call.Err != nil {
			continue
		}
		desc := c.devices[i]
		switch st := call.Out.(type) {
		case *devmodel.TransponderState:
			c.store.Append(Point{desc.ID, "rx-osnr-db", now, st.RxOSNRdB})
			c.store.Append(Point{desc.ID, "pre-fec-ber", now, st.PreFECBER})
			c.store.Append(Point{desc.ID, "post-fec-ber", now, st.PostFECBER})
			c.store.Append(Point{desc.ID, "rx-power-dbm", now, st.RxPowerDBm})
			c.store.Append(Point{desc.ID, "los", now, boolTo01(st.LossOfSignal)})
			c.observeBER(desc.ID, *st)
			// A transponder's LOS cannot localize the cut by itself: its
			// circuit crosses many fibers. Only record it.
		case *devmodel.AmplifierState:
			c.store.Append(Point{desc.ID, "gain-db", now, st.GainDB})
			c.store.Append(Point{desc.ID, "out-power-dbm", now, st.OutPowerDBm})
			c.store.Append(Point{desc.ID, "los", now, boolTo01(st.LossOfSignal)})
			// Amplifiers sit on a known fiber: their LOS localizes it.
			c.observeLOS(desc.ID, desc.Fiber, st.LossOfSignal)
		}
	}
}

// observeLOS updates an amplifier's LOS state and emits a fiber event on
// transitions that carry a fiber localization.
func (c *Collector) observeLOS(deviceID, fiber string, los bool) {
	c.mu.Lock()
	prev := c.los[deviceID]
	c.los[deviceID] = los
	c.mu.Unlock()
	if prev == los {
		return
	}
	if fiber == "" {
		return
	}
	kind := "fiber-cut"
	if !los {
		kind = "fiber-restored"
	}
	select {
	case c.events <- Event{Kind: kind, Fiber: fiber, Device: deviceID, Time: time.Now()}:
	default:
	}
}

// observeBER runs the early-warning margin detector with hysteresis:
// latch above the threshold, release below half of it.
func (c *Collector) observeBER(deviceID string, st devmodel.TransponderState) {
	if c.DegradeBERThreshold <= 0 || !st.Config.Enabled || st.LossOfSignal {
		return
	}
	c.mu.Lock()
	latched := c.degraded[deviceID]
	var kind string
	switch {
	case !latched && st.PreFECBER > c.DegradeBERThreshold:
		c.degraded[deviceID] = true
		kind = "ber-degradation"
	case latched && st.PreFECBER < c.DegradeBERThreshold/2:
		c.degraded[deviceID] = false
		kind = "ber-clear"
	}
	c.mu.Unlock()
	if kind == "" {
		return
	}
	select {
	case c.events <- Event{Kind: kind, Device: deviceID, Time: time.Now()}:
	default:
	}
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

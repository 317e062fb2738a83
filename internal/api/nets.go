package api

import (
	"container/list"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"flexwan/internal/chaos"
	"flexwan/internal/plan"
	"flexwan/internal/spectrum"
	"flexwan/internal/transponder"
	"flexwan/internal/workload"
)

// ResolveCatalog maps a scheme name to its transponder catalog.
func ResolveCatalog(scheme string) (transponder.Catalog, error) {
	switch scheme {
	case "", "flexwan", "svt":
		return transponder.SVT(), nil
	case "radwan", "bvt":
		return transponder.RADWAN(), nil
	case "100g", "fixed":
		return transponder.Fixed100G(), nil
	}
	return transponder.Catalog{}, fmt.Errorf("unknown scheme %q (want flexwan, radwan, or 100g)", scheme)
}

// ResolveNetwork maps a network name (+ demand scale and seed) to a
// topology. The ring sizes mirror the chaos drill networks.
func ResolveNetwork(name string, scale float64, seed int64) (workload.Network, error) {
	var n workload.Network
	switch name {
	case "ring4":
		n = chaos.RingNetwork(4, 500, 400)
	case "ring6":
		n = chaos.RingNetwork(6, 400, 400)
	case "cernet":
		n = workload.Cernet(seed)
	case "tbackbone":
		n = workload.TBackbone(seed)
	default:
		return workload.Network{}, fmt.Errorf("unknown network %q (want ring4, ring6, cernet, or tbackbone)", name)
	}
	if scale > 0 && scale != 1 {
		n = n.Scale(scale)
	}
	return n, nil
}

// planKey identifies one cached base plan. Everything that feeds
// plan.Solve is in the key, so equal keys mean byte-identical plans —
// which is what makes a thousand restoration jobs against the same
// backbone bit-identical to their batch equivalents.
type planKey struct {
	network string
	scale   float64
	scheme  string
	k       int
	seed    int64
}

const (
	// planCacheCap bounds the resident base plans: a handful of live
	// backbones, not every seed a client ever asked for (a T-backbone
	// entry is ~66 KB).
	planCacheCap = 16
	// restoreMemoCap bounds one entry's memoised restore payloads —
	// room for every single-fiber cut of either backbone several times
	// over, ~0.5 KB each.
	restoreMemoCap = 256
)

// planEntry is one cache slot; once guards the single solve. The solved
// fields are immutable afterwards, so a job may keep using an entry the
// cache has since evicted.
type planEntry struct {
	key     planKey
	once    sync.Once
	net     workload.Network
	catalog transponder.Catalog
	grid    spectrum.Grid
	res     *plan.Result
	err     error

	// memo holds rendered restore payloads per ordered cut set (see
	// cutKey) — bytes only, never the *restore.Result. Filled on first
	// request, never at entry creation.
	mu   sync.Mutex
	memo map[string]json.RawMessage
}

// PlanCacheStats is the plan_cache block of /v1/stats.
type PlanCacheStats struct {
	Entries       int   `json:"entries"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	RestoreHits   int64 `json:"restore_hits"`
	RestoreMisses int64 `json:"restore_misses"`
}

// planCache is the service's one bounded cache: an LRU of heuristic base
// plans per (network, scale, scheme, k, seed), each carrying the restore
// payloads already rendered against it. plan.Solve and restore.Solve are
// deterministic, so a hit, a miss and a re-solve after eviction all
// return the same bytes — the cache only saves time.
type planCache struct {
	mu      sync.Mutex
	entries map[planKey]*list.Element // value: *planEntry
	lru     *list.List                // front: most recently used

	hits, misses, evictions    int64 // under mu
	restoreHits, restoreMisses atomic.Int64
}

func newPlanCache() *planCache {
	return &planCache{entries: make(map[planKey]*list.Element), lru: list.New()}
}

// base returns the cached plan for the key, solving on first use and
// evicting the least recently used entry past planCacheCap. The per-entry
// sync.Once keeps concurrent first requests from racing N identical
// solves.
func (c *planCache) base(key planKey) (*planEntry, error) {
	c.mu.Lock()
	el := c.entries[key]
	if el != nil {
		c.hits++
		c.lru.MoveToFront(el)
	} else {
		c.misses++
		el = c.lru.PushFront(&planEntry{key: key})
		c.entries[key] = el
		if c.lru.Len() > planCacheCap {
			old := c.lru.Remove(c.lru.Back()).(*planEntry)
			delete(c.entries, old.key)
			c.evictions++
		}
	}
	c.mu.Unlock()
	e := el.Value.(*planEntry)
	e.once.Do(func() {
		e.net, e.err = ResolveNetwork(key.network, key.scale, key.seed)
		if e.err != nil {
			return
		}
		e.catalog, e.err = ResolveCatalog(key.scheme)
		if e.err != nil {
			return
		}
		e.grid = spectrum.DefaultGrid()
		e.res, e.err = plan.Solve(plan.Problem{
			Optical: e.net.Optical, IP: e.net.IP,
			Catalog: e.catalog, Grid: e.grid, K: key.k,
		})
	})
	return e, e.err
}

// cutKey is the memo key of an ordered cut set: each fiber ID prefixed
// with its length, so no ID can forge a boundary and "a+b" ≠ "b+a".
func cutKey(cutFibers []string) string {
	var b strings.Builder
	for _, f := range cutFibers {
		b.WriteString(strconv.Itoa(len(f)))
		b.WriteByte(':')
		b.WriteString(f)
	}
	return b.String()
}

// restored returns the payload memoised on e for the cut key, if any.
func (c *planCache) restored(e *planEntry, cuts string) (json.RawMessage, bool) {
	e.mu.Lock()
	payload, ok := e.memo[cuts]
	e.mu.Unlock()
	if ok {
		c.restoreHits.Add(1)
	} else {
		c.restoreMisses.Add(1)
	}
	return payload, ok
}

// remember stores a freshly rendered payload and returns the bytes to
// hand out: the first stored copy when concurrent first requests raced
// (their solves are identical). A full memo drops an arbitrary payload.
func (e *planEntry) remember(cuts string, payload json.RawMessage) json.RawMessage {
	e.mu.Lock()
	defer e.mu.Unlock()
	if first, ok := e.memo[cuts]; ok {
		return first
	}
	if e.memo == nil {
		e.memo = make(map[string]json.RawMessage)
	}
	if len(e.memo) >= restoreMemoCap {
		for victim := range e.memo {
			delete(e.memo, victim)
			break
		}
	}
	e.memo[cuts] = payload
	return payload
}

func (c *planCache) snapshot() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{
		Entries: c.lru.Len(), Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		RestoreHits: c.restoreHits.Load(), RestoreMisses: c.restoreMisses.Load(),
	}
}

func specKey(spec JobSpec) planKey {
	return planKey{network: spec.Network, scale: spec.Scale, scheme: spec.Scheme, k: spec.K, seed: spec.Seed}
}

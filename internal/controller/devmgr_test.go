package controller

import (
	"net"
	"strings"
	"testing"
	"time"

	"flexwan/internal/device"
	"flexwan/internal/devmodel"
	"flexwan/internal/netconf"
	"flexwan/internal/phy"
	"flexwan/internal/spectrum"
	"flexwan/internal/transponder"
)

// registerFixture starts loopback agents for one RegisterAll case and
// remembers each agent's server by address.
type registerFixture struct {
	t       *testing.T
	servers map[string]*netconf.Server
}

// agent starts an agent that greets as id and returns a descriptor that
// registers it: a WSS on the fiber when one is given, else a transponder.
func (f *registerFixture) agent(id, fiber string) devmodel.Descriptor {
	f.t.Helper()
	desc := devmodel.Descriptor{ID: id, Class: devmodel.ClassTransponder, Vendor: "v", Site: "A", Fiber: fiber}
	var start func(string) (string, error)
	var srv *netconf.Server
	if fiber != "" {
		desc.Class = devmodel.ClassWSS
		w := device.NewWSS(desc, spectrum.DefaultGrid())
		start, srv = w.Start, w.Server()
		f.t.Cleanup(w.Close)
	} else {
		tr := device.NewTransponder(desc, spectrum.DefaultGrid(), transponder.SVT(), device.NewFabric(phy.DefaultLink()))
		start, srv = tr.Start, tr.Server()
		f.t.Cleanup(tr.Close)
	}
	addr, err := start("127.0.0.1:0")
	if err != nil {
		f.t.Fatal(err)
	}
	f.servers[addr] = srv
	desc.Address = addr
	return desc
}

// refusedAddress returns a loopback address nothing listens on.
func (f *registerFixture) refusedAddress() string {
	f.t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// sessions waits for the agent at addr to settle on want sessions: a
// session the manager closed leaves the agent when its read loop sees EOF.
func (f *registerFixture) sessions(addr string, want int) int {
	srv := f.servers[addr]
	if srv == nil {
		return want // nothing listens there
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Sessions() != want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return srv.Sessions()
}

// TestRegisterAll registers waves that clash with themselves or with an
// earlier registration. Errors come back by position, the first in input
// order wins, every rejected agent is left with no session, and the
// corrected descriptor then registers.
func TestRegisterAll(t *testing.T) {
	for _, tc := range []struct {
		name string
		// arrange returns what registers before the wave, the wave, and
		// for each refused position of the wave its corrected descriptor.
		arrange func(f *registerFixture) (before, wave []devmodel.Descriptor, fixes map[int]devmodel.Descriptor)
		want    []string // "" for a registration that succeeds, else a substring of its error
	}{
		{
			name: "duplicate ID within the wave",
			arrange: func(f *registerFixture) ([]devmodel.Descriptor, []devmodel.Descriptor, map[int]devmodel.Descriptor) {
				first, second := f.agent("tx-1", ""), f.agent("tx-1", "")
				fixed := f.agent("tx-2", "")
				return nil, []devmodel.Descriptor{first, f.agent("tx-0", ""), second}, map[int]devmodel.Descriptor{2: fixed}
			},
			want: []string{"", "", "duplicate device tx-1"},
		},
		{
			name: "duplicate ID against an earlier registration",
			arrange: func(f *registerFixture) ([]devmodel.Descriptor, []devmodel.Descriptor, map[int]devmodel.Descriptor) {
				earlier, again := f.agent("tx-1", ""), f.agent("tx-1", "")
				return []devmodel.Descriptor{earlier}, []devmodel.Descriptor{again, f.agent("tx-2", "")},
					map[int]devmodel.Descriptor{0: f.agent("tx-3", "")}
			},
			want: []string{"duplicate device tx-1", ""},
		},
		{
			name: "two WSSes on one fiber",
			arrange: func(f *registerFixture) ([]devmodel.Descriptor, []devmodel.Descriptor, map[int]devmodel.Descriptor) {
				b := f.agent("wss-b", "f1")
				fixed := b
				fixed.Fiber = "f2"
				return nil, []devmodel.Descriptor{f.agent("wss-a", "f1"), b}, map[int]devmodel.Descriptor{1: fixed}
			},
			want: []string{"", "fiber f1 already controlled by WSS wss-a"},
		},
		{
			name: "WSS without a fiber",
			arrange: func(f *registerFixture) ([]devmodel.Descriptor, []devmodel.Descriptor, map[int]devmodel.Descriptor) {
				w := f.agent("wss-a", "f1")
				unbound := w
				unbound.Fiber = ""
				return nil, []devmodel.Descriptor{unbound, f.agent("tx-1", "")}, map[int]devmodel.Descriptor{0: w}
			},
			want: []string{"WSS wss-a has no fiber binding", ""},
		},
		{
			name: "identity mismatch",
			arrange: func(f *registerFixture) ([]devmodel.Descriptor, []devmodel.Descriptor, map[int]devmodel.Descriptor) {
				miswired := f.agent("tx-other", "")
				miswired.ID = "tx-1"
				return nil, []devmodel.Descriptor{f.agent("tx-0", ""), miswired},
					map[int]devmodel.Descriptor{1: f.agent("tx-1", "")}
			},
			want: []string{"", "identifies as tx-other, registered as tx-1"},
		},
		{
			name: "refused address",
			arrange: func(f *registerFixture) ([]devmodel.Descriptor, []devmodel.Descriptor, map[int]devmodel.Descriptor) {
				down := f.agent("tx-1", "")
				up := down
				down.Address = f.refusedAddress()
				return nil, []devmodel.Descriptor{down, f.agent("tx-0", "")}, map[int]devmodel.Descriptor{0: up}
			},
			want: []string{"connection refused", ""},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := &registerFixture{t: t, servers: map[string]*netconf.Server{}}
			before, wave, fixes := tc.arrange(f)
			d := NewDevMgr()
			t.Cleanup(d.Close)
			for _, desc := range before {
				if err := d.Register(desc); err != nil {
					t.Fatal(err)
				}
			}
			errs := d.RegisterAll(wave)
			if len(errs) != len(wave) {
				t.Fatalf("%d errors for a wave of %d", len(errs), len(wave))
			}
			for i, desc := range wave {
				switch want := tc.want[i]; {
				case want == "" && errs[i] != nil:
					t.Fatalf("position %d (%s): %v", i, desc.ID, errs[i])
				case want == "":
					if got, _ := d.Descriptor(desc.ID); got.Address != desc.Address {
						t.Errorf("position %d: %s registered at %s, want %s", i, desc.ID, got.Address, desc.Address)
					}
					if n := f.sessions(desc.Address, 1); n != 1 {
						t.Errorf("position %d: registered %s holds %d sessions, want 1", i, desc.ID, n)
					}
				case errs[i] == nil || !strings.Contains(errs[i].Error(), want):
					t.Fatalf("position %d (%s): %v, want an error containing %q", i, desc.ID, errs[i], want)
				default:
					if n := f.sessions(desc.Address, 0); n != 0 {
						t.Errorf("position %d: rejected agent at %s holds %d sessions, want 0", i, desc.Address, n)
					}
				}
			}
			for i, fixed := range fixes {
				if tc.want[i] == "" {
					t.Fatalf("position %d registered; nothing to correct", i)
				}
				if err := d.Register(fixed); err != nil {
					t.Fatalf("corrected position %d (%s): %v", i, fixed.ID, err)
				}
				if got, _ := d.Descriptor(fixed.ID); got != fixed {
					t.Errorf("corrected position %d registered as %+v, want %+v", i, got, fixed)
				}
			}
		})
	}
}

// Command flexwand is the FlexWAN controller daemon: a persistent,
// multi-tenant HTTP/JSON service over the planner, restorer, chaos
// drills, and (optionally) a live device fleet. Where flexwanctl
// rebuilds the world per invocation, flexwand keeps it resident — base
// plans in a bounded LRU cache, one bounded set of workers shared fairly
// across tenants, every config change audited in the versioned store.
//
// Usage:
//
//	flexwand                                  # listen on 127.0.0.1:8422
//	flexwand -listen :9000 -workers 8
//	flexwand -fleet ring4                     # stand up a live device fleet
//	flexwand -addr-file /tmp/flexwand.addr    # write the bound address (CI)
//
// Then, from any HTTP client (responses are compact JSON):
//
//	curl -s -XPOST localhost:8422/v1/jobs -d '{"type":"plan","network":"cernet"}' | jq .
//	curl -s 'localhost:8422/v1/jobs/j-000001?wait=30s' | jq .
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flexwan/internal/api"
	"flexwan/internal/chaos"
	"flexwan/internal/controller"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8422", "host:port to serve the v1 API on (port 0 picks a free port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (for CI and scripts)")
	fleet := flag.String("fleet", "", "stand up a live loopback device fleet on this network: ring4 | ring6 | cernet | tbackbone")
	workers := flag.Int("workers", 0, "job-execution workers shared across tenants (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 256, "admission-queue bound; submissions past it get 429 (4x this many finished jobs stay queryable)")
	k := flag.Int("k", 3, "candidate-path count for the fleet's base plan")
	verbose := flag.Bool("v", false, "service and controller logs")
	flag.Parse()

	if err := run(*listen, *addrFile, *fleet, *workers, *queueDepth, *k, *verbose); err != nil {
		log.Fatal(err)
	}
}

func run(listen, addrFile, fleet string, workers, queueDepth, k int, verbose bool) error {
	logf := func(string, ...interface{}) {}
	if verbose {
		logf = log.Printf
	}

	// One store across the API and the fleet controller: the testbed's
	// initial Apply becomes config version 1, and every drill restoration
	// appends to the same audit history /v1/configs serves.
	store := controller.NewMemStore()
	var ctrl *controller.Controller
	if fleet != "" {
		n, err := api.ResolveNetwork(fleet, 0, 1)
		if err != nil {
			return err
		}
		log.Printf("deploying %s device fleet...", n.Name)
		tb, err := chaos.NewTestbed(n, chaos.Options{
			K: k, ConfigStore: store, Actor: "flexwand", Logf: logf,
		})
		if err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
		defer tb.Close()
		ctrl = tb.Ctrl
		log.Printf("fleet up: %d transponder agents, plan applied (%d wavelengths)",
			len(tb.Transponders), len(tb.Plan.Wavelengths))
	}

	srv := api.New(api.Options{
		QueueDepth: queueDepth,
		Workers:    workers,
		Controller: ctrl,
		Store:      store,
		Logf:       logf,
	})

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(addr+"\n"), 0o644); err != nil {
			return err
		}
	}
	log.Printf("flexwand serving v1 API on http://%s", addr)

	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful stop: close the listener, drain the scheduler (queued jobs
	// finish Canceled with an explicit reason, in-flight jobs complete),
	// then let in-progress HTTP responses flush.
	log.Printf("flexwand shutting down...")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("scheduler drain: %v", err)
	}
	return hs.Shutdown(shutCtx)
}

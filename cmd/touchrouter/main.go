// Command touchrouter is the stateless routing tier in front of a
// fleet of touchserved replicas: it owns a consistent-hash ring over
// dataset names and proxies every request — HTTP and binary wire alike
// — to the ring owners over the wire protocol (see internal/router).
//
// Usage:
//
//	touchrouter -backends host1:9090,host2:9090[,...]
//	            [-addr :8081] [-bin-addr ADDR] [-replication 2]
//	            [-vnodes 128] [-pool 4] [-health-interval 2s]
//	            [-timeout 10s] [-grace 15s] [-log-format text|json]
//
// -backends lists the replicas' wire-protocol addresses; the ring is
// keyed by exactly these strings, so every router given the same list
// computes the same placement. -replication is R, the number of
// distinct ring owners per dataset: reads fail over among them,
// updates go to the primary only.
//
// The router is stateless — kill one, start another, nothing is lost;
// run several behind a TCP load balancer for a HA front tier. /healthz
// answers 503 once every backend is unreachable, so a balancer drains
// a router that can no longer serve. SIGINT/SIGTERM drain gracefully.
package main

import (
	"flag"
	"strings"
	"time"

	"touch/cmd/internal/daemon"
	"touch/internal/router"
)

func main() {
	var (
		addr        = flag.String("addr", ":8081", "HTTP listen address (host:0 picks a free port)")
		binAddr     = flag.String("bin-addr", "", "binary wire-protocol listen address (empty = HTTP only)")
		backendsArg = flag.String("backends", "", "comma-separated touchserved wire addresses (required)")
		replication = flag.Int("replication", 2, "ring owners per dataset (reads fail over among them)")
		vnodes      = flag.Int("vnodes", router.DefaultVNodes, "virtual nodes per backend on the hash ring")
		poolSize    = flag.Int("pool", 4, "wire connections kept per backend")
		healthEvery = flag.Duration("health-interval", 2*time.Second, "backend health probe cadence")
		timeout     = flag.Duration("timeout", 10*time.Second, "per-request proxy budget")
		grace       = flag.Duration("grace", 15*time.Second, "shutdown drain budget")
		logFormat   = flag.String("log-format", "text", "log output format: text or json")
	)
	flag.Parse()

	d := daemon.New("touchrouter", *logFormat)

	var backends []string
	for _, b := range strings.Split(*backendsArg, ",") {
		if b = strings.TrimSpace(b); b != "" {
			backends = append(backends, b)
		}
	}
	if len(backends) == 0 {
		d.Fatal("no backends: pass -backends host1:port,host2:port")
	}

	rt, err := router.New(router.Config{
		Backends:       backends,
		Replication:    *replication,
		VNodes:         *vnodes,
		PoolSize:       *poolSize,
		HealthInterval: *healthEvery,
		RequestTimeout: *timeout,
		Logger:         d.Log,
	})
	if err != nil {
		d.Fatal("router init failed", "err", err)
	}
	d.Log.Info("touchrouter starting", "backends", len(backends), "replication", *replication)

	// The initial sweep runs before the listeners open, so the first
	// request already sees probed health state.
	rt.Start()
	defer rt.Close()

	d.Serve(rt, *addr, *binAddr, *timeout)
	d.Wait(*grace, nil)
}

// Command serve runs the resident parallel-compute service: a
// long-lived native work-stealing pool and a set of resident Eden
// lanes behind an HTTP/JSON gateway.
//
//	serve -addr :8080 -workers 8 -pes 4 -lanes 2 -queue 64 -inflight 16 \
//	      -deadline 30s -maxdeadline 2m -pprof
//
// Endpoints:
//
//	POST /api/v1/jobs   {"workload":"sumeuler","n":2000,"chunks":16}
//	GET  /api/v1/trace  a traced job's per-worker event dump (?id=t-N)
//	GET  /metrics       Prometheus text exposition
//	GET  /statusz       service + pool counter snapshot (?stream=N for NDJSON)
//	GET  /healthz       200 while accepting, 503 once draining
//
// With -pprof the live profiler mounts at /debug/pprof/ (CPU and heap
// profiles, goroutine dumps, execution traces of the running service).
//
// SIGTERM/SIGINT drains gracefully: new submissions are rejected with
// 503, every admitted job runs to completion (bounded by its own
// deadline), then the listener and the backends shut down and the
// process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"parhask/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "native pool workers (0 = GOMAXPROCS)")
	pes := flag.Int("pes", 0, "PEs per Eden lane (0 = 2)")
	lanes := flag.Int("lanes", 0, "resident Eden lanes (0 = 2)")
	queue := flag.Int("queue", 0, "per-tenant queue bound (0 = 64)")
	inflight := flag.Int("inflight", 0, "max concurrently executing jobs (0 = 2x workers)")
	deadline := flag.Duration("deadline", 0, "default per-job deadline (0 = 30s)")
	maxDeadline := flag.Duration("maxdeadline", 0, "per-job deadline cap (0 = 2m)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof at /debug/pprof/")
	flag.Parse()

	s := serve.New(serve.Config{
		Workers: *workers, PEs: *pes, Lanes: *lanes,
		QueueCap: *queue, MaxInflight: *inflight,
		DefaultDeadline: *deadline, MaxDeadline: *maxDeadline,
	})
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	if *pprofOn {
		// Explicit registrations on our own mux: the service never
		// touches http.DefaultServeMux, and the profiler stays opt-in.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	hs := &http.Server{Addr: *addr, Handler: mux}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := <-stop
		fmt.Fprintf(os.Stderr, "serve: %v: draining (in-flight jobs run to completion)\n", sig)
		// Drain order: stop admitting and finish the admitted work first
		// (Do calls still in the handler must complete so their clients
		// get responses), then close the listener.
		s.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "serve: shutdown: %v\n", err)
		}
	}()

	fmt.Fprintf(os.Stderr, "serve: listening on %s (workloads: %v)\n", *addr, serve.Workloads())
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	<-done
	fmt.Fprintln(os.Stderr, "serve: drained, exiting")
}

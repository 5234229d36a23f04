// Command lspserve is the mining daemon: a crash-survivable HTTP/JSON job
// server in front of the three-phase pipeline, with bounded queues, tenant
// isolation, and admission control.
//
// Usage:
//
//	lspserve -data /var/lib/lspserve [-addr 127.0.0.1:8427] \
//	         [-worker-slots N] [-max-workers-per-job N] [-queue-cap 64] \
//	         [-tenant-rate 0] [-tenant-burst 1] [-tenant-max-active 0] \
//	         [-phase3-timeout 0] \
//	         [-auth-token T] [-retain-jobs 0] [-retry-base 10ms] \
//	         [-retry-cap 1s] [-serve-shards db.lsq] [-v]
//
// API (JSON unless noted):
//
//	POST   /v1/jobs             submit a job spec    → 202 + status
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/result result document of a done job
//	GET    /v1/jobs/{id}/events NDJSON stream of status snapshots
//	DELETE /v1/jobs/{id}        cancel
//	POST   /v1/shards/probe     probe-batch RPC (with -serve-shards)
//	POST   /v1/append           append sequences (with -append-log)
//	GET    /healthz             liveness (503 while draining)
//	GET    /metrics             Prometheus text
//
// -auth-token requires "Authorization: Bearer <token>" on every /v1 route
// (health and metrics stay open); rejections carry a machine-readable
// reason, and a request whose X-LSP-Tenant header contradicts the spec's
// tenant is refused 403. -retain-jobs compacts the journal at startup,
// keeping only the newest N terminal jobs. -serve-shards turns the node
// into a distributed Phase 3 shard worker: it answers probe-batch RPCs
// over the named database (comma-separated paths open a shard set) beside
// the jobs API, for lspmine -phase3-nodes coordinators.
//
// -append-log makes the server the ingest side of a streaming deployment:
// it owns the write handle of the named append-only log (.lsa, created when
// absent) and serves POST /v1/append — clients feed sequences in, with
// optional expect_total idempotency, and followers (lspmine -follow)
// tail the same file read-only. -append-window N expires all but the newest
// N live sequences after each accepted batch; -append-sync fsyncs per batch.
//
// Every accepted job is journaled crash-atomically under -data before the
// submit response is sent, running jobs checkpoint their mining progress
// there, and a restarted server replays the journal: finished jobs stay
// queryable, queued jobs re-enter the queue, and jobs a crash interrupted
// mid-run resume from their checkpoints to bit-identical results. Admission
// control sheds overload (full queue, tenant over its rate or concurrency
// limit) with 429 + Retry-After instead of queuing without bound; a job
// whose Phase 3 budget expires completes with the degraded result rather
// than failing.
//
// SIGINT/SIGTERM drain gracefully: submissions stop (healthz turns 503), in-
// flight jobs flush a final checkpoint and stay journaled as running, and
// the next start finishes them. The listen address is printed to stdout once
// the socket is open ("lspserve listening on ..."), so scripts can use
// -addr 127.0.0.1:0 and scrape the chosen port.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/jobs"
	"repro/internal/seqdb"
	"repro/internal/shardrpc"
	"repro/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8427", "listen address (host:port; port 0 picks a free port, printed on stdout)")
	dataDir := flag.String("data", "", "journal directory: job records, results and checkpoints (required)")
	workerSlots := flag.Int("worker-slots", runtime.GOMAXPROCS(0), "global worker-slot semaphore: total mining parallelism across all jobs")
	maxPerJob := flag.Int("max-workers-per-job", 0, "cap the worker-slot grant a job keeps for its whole run (0 = half the slots, min 1); while nothing is queued a job also borrows idle slots per probe pass and Phase 2 level")
	queueCap := flag.Int("queue-cap", 64, "maximum queued (accepted, not yet running) jobs; beyond it submissions get 429")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant submission rate limit in jobs/second (0 = unlimited)")
	tenantBurst := flag.Int("tenant-burst", 1, "per-tenant submission burst (token bucket capacity)")
	tenantMaxActive := flag.Int("tenant-max-active", 0, "per-tenant cap on queued+running jobs (0 = unlimited)")
	phase3Timeout := flag.Duration("phase3-timeout", 0, "default Phase 3 budget for jobs that set none; expiry degrades the job gracefully (0 = unlimited)")
	authToken := flag.String("auth-token", "", "require this bearer token on every /v1 route (empty = open; healthz and metrics are always open)")
	retainJobs := flag.Int("retain-jobs", 0, "compact the journal at startup, keeping only the newest N terminal jobs (0 = keep everything)")
	retryBase := flag.Duration("retry-base", 0, "base delay of the retrying scanner's full-jitter backoff for jobs that set none (0 = 10ms)")
	retryCap := flag.Duration("retry-cap", 0, "delay cap of the retrying scanner's backoff for jobs that set none (0 = 1s)")
	serveShards := flag.String("serve-shards", "", "serve Phase 3 probe-batch RPCs over this database (comma-separated paths open a shard set); empty = jobs API only")
	appendLog := flag.String("append-log", "", "own this append-only log (.lsa, created when absent) and serve POST /v1/append into it")
	appendWindow := flag.Int("append-window", 0, "expire all but the newest N live sequences after each accepted append batch (0 = keep everything)")
	appendSync := flag.Bool("append-sync", false, "fsync the append log after each accepted batch")
	streamInterval := flag.Duration("stream-interval", 200*time.Millisecond, "cadence of /events status snapshots")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget before giving up on in-flight jobs")
	verbose := flag.Bool("v", false, "log job lifecycle events")
	flag.Parse()

	if *dataDir == "" {
		fmt.Fprintln(os.Stderr, "lspserve: -data is required")
		flag.Usage()
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "lspserve: ", log.LstdFlags)
	opts := jobs.Options{
		Dir:                  *dataDir,
		WorkerSlots:          *workerSlots,
		MaxWorkersPerJob:     *maxPerJob,
		QueueCap:             *queueCap,
		TenantRate:           *tenantRate,
		TenantBurst:          *tenantBurst,
		TenantMaxActive:      *tenantMaxActive,
		DefaultPhase3Timeout: *phase3Timeout,
		DefaultRetryBase:     *retryBase,
		DefaultRetryCap:      *retryCap,
		CompactRetain:        *retainJobs,
		Registry:             telemetry.NewRegistry(),
	}
	if *retryBase < 0 || *retryCap < 0 || (*retryBase > 0 && *retryCap > 0 && *retryCap < *retryBase) {
		fmt.Fprintln(os.Stderr, "lspserve: -retry-cap must be >= -retry-base, both non-negative")
		os.Exit(2)
	}
	if *verbose {
		opts.Logf = logger.Printf
	}
	mgr, err := jobs.NewManager(opts)
	if err != nil {
		logger.Fatal(err)
	}
	if c := mgr.Counters(); c.Replayed > 0 || c.Queued > 0 {
		logger.Printf("journal replayed: %d interrupted jobs resuming, %d queued", c.Replayed, c.Queued)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	// Scripts parse this line; keep its shape stable.
	fmt.Printf("lspserve listening on http://%s\n", ln.Addr())

	server := &jobs.Server{Manager: mgr, StreamInterval: *streamInterval, AuthToken: *authToken}
	if *appendLog != "" {
		adb, err := seqdb.OpenAppend(*appendLog)
		if err != nil {
			logger.Fatal(err)
		}
		defer adb.Close()
		server.AppendLog = &jobs.AppendLog{DB: adb, Window: *appendWindow, Sync: *appendSync}
		logger.Printf("serving /v1/append into %s (%d live sequences)", *appendLog, adb.Len())
	}
	handler := server.Handler()
	if *serveShards != "" {
		shards := &shardrpc.Server{
			Open:      func() (seqdb.Scanner, error) { return seqdb.OpenAuto(*serveShards) },
			AuthToken: *authToken,
		}
		if *verbose {
			shards.Logf = logger.Printf
		}
		// Probe open once up front so a bad path fails at startup, not on
		// the coordinator's first scatter.
		if db, err := seqdb.OpenAuto(*serveShards); err != nil {
			logger.Fatal(err)
		} else {
			closeDB(db)
		}
		mux := http.NewServeMux()
		mux.Handle("/v1/shards/", shards.Handler())
		mux.Handle("/", handler)
		handler = mux
		logger.Printf("serving Phase 3 shard probes over %s", *serveShards)
	}
	srv := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logger.Printf("%s: draining (in-flight jobs checkpoint and resume on next start)", sig)
	case err := <-errc:
		logger.Fatal(err)
	}

	// Drain: stop admissions and interrupt jobs first (they flush final
	// checkpoints and stay journaled "running"), then close the listener.
	// A second signal abandons the drain.
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := mgr.Shutdown(ctx); err != nil {
			logger.Print(err)
		}
		if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			logger.Print(err)
		}
	}()
	select {
	case <-done:
		logger.Print("drained; journal is ready for the next start")
	case <-sigc:
		logger.Print("second signal — exiting immediately")
		os.Exit(130)
	}
}

func closeDB(db seqdb.Scanner) {
	if c, ok := db.(interface{ Close() error }); ok {
		c.Close()
	}
}

// Command nbodyd is the N-body solver service: a multi-tenant HTTP server
// around the repo's solver stack, with per-tenant admission control,
// cost-model deadline shedding, adaptive brownout, a solver-plan cache, and
// the self-healing degradation ladder per request.
//
//	nbodyd -addr :8042 -policy fair -fallback bh,direct
//
// With -loadtest it instead runs the load harness against in-process
// servers — one per (policy, overload-mode) pair — and prints the markdown
// comparison table the experiments record, exiting nonzero if any request
// of a well-behaved tenant drew a 5xx or a transport error:
//
//	nbodyd -loadtest -duration 5s -tenants "alice:4:2048,bob:4:2048,carol:2:8192"
//	nbodyd -loadtest -arrival open -req-deadline 2s -overload off,on \
//	       -tenants "light:10:2048,flood:200:8192"
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
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nbody/internal/cli"
	"nbody/internal/serve"
	"nbody/internal/serve/loadgen"
	"nbody/internal/simd"
)

func main() {
	var (
		addr      = flag.String("addr", ":8042", "listen address")
		workers   = flag.Int("workers", 0, "solver workers (0 = GOMAXPROCS/2)")
		queue     = flag.Int("queue-depth", 16, "per-tenant queue depth (admission bound)")
		inflight  = flag.Int("inflight", 2, "per-tenant in-flight cap under the fair policy (-1 = uncapped)")
		policy    = flag.String("policy", "fair", "admission policy: fair | fifo")
		planCache = flag.Int("plan-cache", 8, "idle warm plans retained (-1 disables reuse)")
		maxN      = flag.Int("max-n", 131072, "particle-count cap per request")
		maxDepth  = flag.Int("max-depth", 6, "hierarchy-depth cap per request")
		deadline  = flag.Duration("deadline", 60*time.Second, "default per-request deadline")
		fallback  = flag.String("fallback", "", "degradation ladder below Anderson, comma-separated (e.g. bh,direct)")
		backend   = flag.String("backend", "", cli.BackendHelp)
		quiet     = flag.Bool("quiet", false, "drop per-request logs")

		noAdmission = flag.Bool("no-admission", false, "disable cost-model admission (serve mode)")
		noBrownout  = flag.Bool("no-brownout", false, "disable adaptive brownout (serve mode)")
		brownTarget = flag.Duration("brownout-target", 0, "brownout queue-delay setpoint (0 = default 100ms)")
		planStore   = flag.String("plan-store", "", cli.PlanStoreHelp)
		drainGrace  = flag.Duration("drain-grace", 30*time.Second, "on SIGTERM, how long to wait for queued and in-flight work (streams emit an interrupted checkpoint frame and end) before forcing shutdown")

		loadtest = flag.Bool("loadtest", false, "run the load harness instead of serving")
		duration = flag.Duration("duration", 5*time.Second, "loadtest: duration per run")
		tenants  = flag.String("tenants", "alice:4:2048,bob:4:2048,carol:2:8192",
			"loadtest: tenant spec name:concurrency:n[@accuracy][:n...], comma-separated (concurrency is arrivals/sec under -arrival open)")
		target   = flag.String("target", "", "loadtest: drive this external base URL (a gateway or a replica) instead of in-process servers; the policy/overload matrix does not apply")
		policies = flag.String("policies", "fifo,fair", "loadtest: admission policies to compare")
		think    = flag.Duration("think", 0, "loadtest: per-tenant think time between requests")
		arrival  = flag.String("arrival", "closed", "loadtest: arrival model, closed | open")
		overload = flag.String("overload", "on", "loadtest: overload-control modes to compare, comma of off|on")
		reqDL    = flag.Duration("req-deadline", 0, "loadtest: per-request deadline attached to every tenant (0 = server default)")
		chaos    = flag.Bool("chaos", false, "loadtest: add slow-loris and mid-stream-disconnect chaos tenants")
	)
	flag.Parse()

	if err := cli.SetBackend(*backend); err != nil {
		log.Fatalf("nbodyd: %v", err)
	}

	cfg := serve.Config{
		Workers:           *workers,
		Policy:            serve.Policy(*policy),
		QueueDepth:        *queue,
		InflightPerTenant: *inflight,
		PlanCacheCap:      *planCache,
		MaxN:              *maxN,
		MaxDepth:          *maxDepth,
		DefaultDeadline:   *deadline,
		Ladder:            *fallback,
		Quiet:             *quiet,
		DisableAdmission:  *noAdmission,
		DisableBrownout:   *noBrownout,
		BrownoutTarget:    *brownTarget,
		PlanStore:         *planStore,
	}

	if *loadtest {
		opts := loadtestOpts{
			policies: *policies,
			tenants:  *tenants,
			duration: *duration,
			think:    *think,
			arrival:  *arrival,
			overload: *overload,
			reqDL:    *reqDL,
			chaos:    *chaos,
			target:   *target,
		}
		if err := runLoadtest(cfg, opts); err != nil {
			log.Fatalf("nbodyd: %v", err)
		}
		return
	}
	if err := serveForever(cfg, *addr, *drainGrace); err != nil {
		log.Fatalf("nbodyd: %v", err)
	}
}

// serveForever runs the server until SIGINT/SIGTERM, then drains before
// shutting down: first the serve layer refuses new work (so /v1/healthz
// advertises "draining" and a gateway stops routing here while the listener
// is still up — closing the listener first would make the drain invisible),
// then queued and in-flight requests finish (active simulate streams emit
// an interrupted checkpoint frame and end cleanly), and only then does the
// HTTP server close. A rolling restart under a gateway is therefore
// zero-failed-requests: nothing is severed mid-flight.
func serveForever(cfg serve.Config, addr string, drainGrace time.Duration) error {
	if _, err := serve.ParsePolicy(string(cfg.Policy)); err != nil {
		return err
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	hs := &http.Server{Addr: addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("nbodyd: serving on %s (backend=%s policy=%s)", addr, simd.Active(), cfg.Policy)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		srv.Close()
		return err
	case s := <-sig:
		log.Printf("nbodyd: %v, draining (grace %s)", s, drainGrace)
		ctx, cancel := context.WithTimeout(context.Background(), drainGrace)
		if err := srv.Drain(ctx); err != nil {
			log.Printf("nbodyd: drain incomplete: %v", err)
		}
		cancel()
		ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		srv.Close()
		log.Printf("nbodyd: drained, exiting")
		return nil
	}
}

type loadtestOpts struct {
	policies string
	tenants  string
	duration time.Duration
	think    time.Duration
	arrival  string
	overload string
	reqDL    time.Duration
	chaos    bool
	target   string
}

// Chaos tenant names the 5xx gate skips: their whole job is to misbehave.
const (
	chaosSlowTenant = "chaos-slow"
	chaosDropTenant = "chaos-drop"
)

// runLoadtest starts one in-process server per (policy, overload-mode)
// pair on a loopback listener, drives the same tenant mix against each
// over real HTTP, and prints the comparison table. Any 5xx among the
// well-behaved tenants fails the run.
func runLoadtest(cfg serve.Config, opts loadtestOpts) error {
	if opts.arrival != "closed" && opts.arrival != "open" {
		return fmt.Errorf("loadtest: -arrival must be closed or open, got %q", opts.arrival)
	}
	ts, err := parseTenants(opts.tenants, opts.think)
	if err != nil {
		return err
	}
	for i := range ts {
		if opts.reqDL > 0 {
			ts[i].DeadlineMS = opts.reqDL.Milliseconds()
		}
		if opts.arrival == "open" {
			// The spec's concurrency field becomes the arrival rate: a
			// fixed-rate clock that does not slow down when the server does.
			ts[i].RateRPS = float64(ts[i].Concurrency)
			ts[i].Concurrency = 0
		}
	}
	if opts.chaos {
		ts = append(ts,
			loadgen.Tenant{Name: chaosSlowTenant, Concurrency: 2, Chaos: loadgen.ChaosSlowLoris,
				Shapes: []loadgen.Shape{{N: 1024}}, Think: 20 * time.Millisecond},
			loadgen.Tenant{Name: chaosDropTenant, Concurrency: 2, Chaos: loadgen.ChaosDisconnect,
				Shapes: []loadgen.Shape{{N: 1024}}, Think: 20 * time.Millisecond},
		)
	}

	var results []*loadgen.Result
	if opts.target != "" {
		// An external target (a gateway, or one replica of a fleet): the
		// policy/overload matrix is the server's business, not ours — one
		// run, labeled "target".
		res, err := loadgen.Run(context.Background(), loadgen.Config{
			BaseURL:  strings.TrimRight(opts.target, "/"),
			Duration: opts.duration,
			Tenants:  ts,
		})
		if err != nil {
			return err
		}
		res.Policy = "target"
		results = append(results, res)
		fmt.Fprint(os.Stderr, res.Summary())
		return reportLoadtest(cfg, results, opts)
	}
	for _, mode := range strings.Split(opts.overload, ",") {
		mode = strings.TrimSpace(mode)
		if mode != "on" && mode != "off" {
			return fmt.Errorf("loadtest: -overload modes are off|on, got %q", mode)
		}
		for _, pol := range strings.Split(opts.policies, ",") {
			pol = strings.TrimSpace(pol)
			p, err := serve.ParsePolicy(pol)
			if err != nil {
				return err
			}
			c := cfg
			c.Policy = p
			c.Quiet = true
			if mode == "off" {
				c.DisableAdmission = true
				c.DisableBrownout = true
			}
			res, err := runOnePolicy(c, ts, opts.duration)
			if err != nil {
				return err
			}
			res.Policy = pol + "/" + "overload-" + mode
			results = append(results, res)
			fmt.Fprint(os.Stderr, res.Summary())
		}
	}
	return reportLoadtest(cfg, results, opts)
}

// reportLoadtest prints the comparison table and enforces the zero-5xx gate
// on well-behaved tenants.
func reportLoadtest(cfg serve.Config, results []*loadgen.Result, opts loadtestOpts) error {
	// Report the resolved fleet size, not the config zero value that means
	// "use the default".
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0) / 2
	}
	if workers < 2 {
		workers = 2
	}
	fmt.Printf("\nbackend=%s workers=%d queue-depth=%d inflight-cap=%d duration=%s arrival=%s deadline=%s\n\n",
		simd.Active(), workers, cfg.QueueDepth, cfg.InflightPerTenant, opts.duration, opts.arrival, opts.reqDL)
	fmt.Println(loadgen.TableHeader())
	bad := int64(0)
	for _, r := range results {
		fmt.Println(r.TableRow())
		for name, tb := range r.Tenants {
			if name == chaosSlowTenant || name == chaosDropTenant {
				continue
			}
			bad += tb.Err5xx + tb.OtherErr
		}
	}
	if bad > 0 {
		return fmt.Errorf("loadtest: %d requests failed with 5xx/transport errors", bad)
	}
	return nil
}

// runOnePolicy runs one harness pass against a fresh server, whose
// counters are its own.
func runOnePolicy(cfg serve.Config, tenants []loadgen.Tenant, duration time.Duration) (*loadgen.Result, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()

	return loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:  "http://" + ln.Addr().String(),
		Duration: duration,
		Tenants:  tenants,
	})
}

// parseTenants parses "name:concurrency:shape[:shape...]" specs. A shape
// is "n" or "n@accuracy" (fast | balanced | accurate), so a flooding tenant
// can request expensive high-accuracy work — the traffic the brownout
// ladder has something to degrade.
func parseTenants(spec string, think time.Duration) ([]loadgen.Tenant, error) {
	var out []loadgen.Tenant
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 3 {
			return nil, fmt.Errorf("tenant spec %q: want name:concurrency:n[@accuracy][:n...]", part)
		}
		conc, err := strconv.Atoi(fields[1])
		if err != nil || conc < 1 {
			return nil, fmt.Errorf("tenant spec %q: bad concurrency %q", part, fields[1])
		}
		t := loadgen.Tenant{Name: fields[0], Concurrency: conc, Think: think}
		for _, f := range fields[2:] {
			nStr, acc, _ := strings.Cut(f, "@")
			switch acc {
			case "", "fast", "balanced", "accurate":
			default:
				return nil, fmt.Errorf("tenant spec %q: bad accuracy %q (fast|balanced|accurate)", part, acc)
			}
			n, err := strconv.Atoi(nStr)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("tenant spec %q: bad N %q", part, f)
			}
			t.Shapes = append(t.Shapes, loadgen.Shape{N: n, Accuracy: acc})
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("tenant spec %q: no tenants", spec)
	}
	return out, nil
}

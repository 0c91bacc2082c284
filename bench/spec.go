package main

// runConfig is what one pass of one workload is run with. The seed makes
// the inputs; the program under test only ever sees those inputs.
type runConfig struct {
	seed    int64
	seconds float64 // length of the timed section; the traced pass measures a quarter of it
	sz      sizes
	outDir  string // where the traced pass writes its spans
}

// sizes are the workload constants. fullSizes is the benchmark; the
// self-tests run the same code at tinySizes.
type sizes struct {
	solveN, solveDepth     int // solve_uniform
	plummerN, plummerDepth int // step_plummer
	plummerDT              float64
	serveN                 int     // serve_small
	serveClients           int     // closed-loop callers
	lightN, heavyN         int     // fleet_open tenants
	lightRate, heavyRate   float64 // requests per second
	deadlineMS             int64   // fleet_open requests
	senders                int     // fleet_open sender goroutines, one connection each
	setups                 int     // fresh constructions behind setup_s
	warmups                int     // library ops before the clock starts
	serveWarmups           int     // requests before the clock starts
	errSamples             int     // particles checked against direct summation
	fullCheckEvery         int     // every k-th response is decoded and compared bitwise
	probeOps               int     // library probe ops on serve/fleet reference shapes
	probeRequests          int     // serve probe requests on non-serve workloads
	scalarOps              int     // nbody.solve_scalar_ms
	directN                int     // direct.minter_s
	dpN, dpNodes, dpDepth  int     // dpfmm.*
	waterfallNs            []int   // serve.*_n<N>
	hopRequests            int     // per target and size, gw.hop_ms_*
	ladderRates            []float64
	ladderSeconds          float64
	ladderP90LimitMS       float64
	microBatch             int // repetitions per timing batch of a micro-measurement
}

var fullSizes = sizes{
	solveN: 32768, solveDepth: 4,
	plummerN: 8192, plummerDepth: 3, plummerDT: 1e-7,
	serveN: 512, serveClients: 2,
	lightN: 512, heavyN: 8192, lightRate: 50, heavyRate: 4, deadlineMS: 1000, senders: 2,
	setups: 5, warmups: 3, serveWarmups: 50,
	errSamples: 256, fullCheckEvery: 100,
	probeOps: 20, probeRequests: 8, scalarOps: 3,
	directN: 4096, dpN: 8192, dpNodes: 8, dpDepth: 3,
	waterfallNs: []int{256, 2048, 32768}, hopRequests: 12,
	ladderRates: []float64{27, 54, 108, 162}, ladderSeconds: 2.5, ladderP90LimitMS: 25,
	microBatch: 200,
}

var tinySizes = sizes{
	solveN: 512, solveDepth: 2,
	plummerN: 256, plummerDepth: 2, plummerDT: 1e-7,
	serveN: 128, serveClients: 2,
	lightN: 64, heavyN: 256, lightRate: 40, heavyRate: 8, deadlineMS: 1000, senders: 2,
	setups: 2, warmups: 1, serveWarmups: 2,
	errSamples: 64, fullCheckEvery: 3,
	probeOps: 3, probeRequests: 3, scalarOps: 1,
	directN: 128, dpN: 512, dpNodes: 8, dpDepth: 2,
	waterfallNs: []int{64, 128}, hopRequests: 2,
	ladderRates: []float64{20, 40}, ladderSeconds: 0.2, ladderP90LimitMS: 25,
	microBatch: 2,
}

// workload is one set of inputs the benchmark runs. timed measures the
// end-to-end metrics with tracing off; traced measures the per-layer
// metrics and records spans.
type workload struct {
	name   string
	timed  func(cfg runConfig) (*result, error)
	traced func(cfg runConfig, tr *tracer) (*result, error)
}

// workloads lists the benchmark in the order it runs; BENCHMARK.json and
// README.md say why each exists.
func workloads() []workload {
	return []workload{
		{
			name:   "solve_uniform",
			timed:  solveUniform.timed,
			traced: solveUniform.traced,
		},
		{
			name:   "step_plummer",
			timed:  stepPlummer.timed,
			traced: stepPlummer.traced,
		},
		{
			name:   "serve_small",
			timed:  serveSmallTimed,
			traced: serveSmallTraced,
		},
		{
			name:   "fleet_open",
			timed:  fleetOpenTimed,
			traced: fleetOpenTraced,
		},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

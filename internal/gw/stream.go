package gw

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"time"

	"nbody/internal/metrics"
	"nbody/internal/serve"
)

// The simulate proxy is the crash-survivable half of the gateway. It
// supervises one client-facing NDJSON stream across as many replica-facing
// streams as it takes: it injects a checkpoint cadence upstream (every
// emitted frame carries a resume token unless the client asked for its
// own cadence), remembers the newest token it has seen, and when a replica
// dies or drains mid-stream it re-launches the simulation on another
// replica from that token — with the depth and accuracy pinned from the
// original stream's X-Plan-* headers, so the continuation is bitwise the
// same trajectory. Frames are deduplicated by step number, so the client
// sees each step exactly once no matter how many replicas served it.

// maxStreamBackoff bounds the sleep between consecutive failed resume
// attempts (probes need a beat to find a restarted replica).
const maxStreamBackoff = time.Second

func (g *Gateway) handleSimulate(w http.ResponseWriter, r *http.Request) {
	body, err := serve.ReadBody(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes), r.ContentLength)
	if err != nil {
		writeGWError(w, http.StatusRequestEntityTooLarge, "too_large", "request body exceeds gateway cap")
		return
	}
	var req serve.SimulateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		// Not a body the gateway can supervise; let a replica produce the
		// authoritative 400.
		g.passthroughSimulate(r.Context(), w, body)
		return
	}

	s := &streamSession{
		g:           g,
		w:           w,
		req:         &req,
		clientEvery: req.StreamEvery,
		stripTokens: req.CheckpointEvery <= 0,
		lastToken:   req.ResumeToken,
		lastStep:    -1,
	}
	s.flusher, _ = w.(http.Flusher)

	// The upstream request: the client's, with a checkpoint cadence the
	// gateway can resume from. When the client wants only the final frame
	// (stream_every 0) the gateway still asks for intermediate frames —
	// they are what carry the checkpoints — and forwards none of them.
	up := req
	if up.StreamEvery <= 0 {
		stride := req.Steps / 16
		if stride < 1 {
			stride = 1
		}
		up.StreamEvery = stride
	}
	if up.CheckpointEvery <= 0 {
		up.CheckpointEvery = 1
	}
	s.upEvery, s.upCkpt = up.StreamEvery, up.CheckpointEvery
	s.upstreamBody, err = json.Marshal(&up)
	if err != nil {
		writeGWError(w, http.StatusBadRequest, "bad_request", "cannot re-encode request")
		return
	}
	s.run(r.Context())
}

// streamSession supervises one client stream across replica legs.
type streamSession struct {
	g       *Gateway
	w       http.ResponseWriter
	flusher http.Flusher

	req          *serve.SimulateRequest
	upstreamBody []byte
	upEvery      int
	upCkpt       int
	clientEvery  int  // 0 = client wants only the final frame
	stripTokens  bool // client asked for no checkpoint tokens

	attempt   int
	lastToken string
	lastStep  int  // last step forwarded to the client
	started   bool // status + at least one frame written to the client

	headerSrc      http.Header // first 200's headers, replayed to the client
	pinned         bool
	pinnedDepth    int
	pinnedAccuracy string
}

type legKind int

const (
	legDone legKind = iota // final frame forwarded (or client gone)
	legRetry
	legTerminal // upstream answered with a non-failover error
)

type legResult struct {
	kind     legKind
	progress bool // this leg advanced the stream (frame or token)
	status   int
	header   http.Header
	body     []byte
}

func (s *streamSession) run(ctx context.Context) {
	failStreak := 0
	lastProgress := time.Now()
	var last *legResult
	for {
		if ctx.Err() != nil {
			return
		}
		rep := s.g.pool.Pick(nil)
		if rep == nil {
			// Nothing eligible: a blind attempt fails fast on a dead
			// replica and succeeds on one the probes haven't re-admitted
			// yet.
			rep = s.g.pool.PickAny(nil)
		}
		if rep == nil {
			s.giveUp(last)
			return
		}
		res := s.runLeg(ctx, rep)
		switch res.kind {
		case legDone:
			return
		case legTerminal:
			if s.started {
				// An error after frames have flowed cannot be expressed in
				// HTTP anymore; sever the stream so the client sees the
				// truncation rather than a silent "end".
				s.abort()
				return
			}
			copyHeaders(s.w.Header(), res.header)
			s.w.WriteHeader(res.status)
			s.w.Write(res.body)
			return
		case legRetry:
			last = res
			if res.progress {
				failStreak = 0
				lastProgress = time.Now()
			} else {
				failStreak++
				if time.Since(lastProgress) > s.g.cfg.StreamRetryWindow {
					// Not one step integrated anywhere in the whole window:
					// the stream is lost, not merely unlucky.
					s.giveUp(last)
					return
				}
			}
			if !sleepCtx(ctx, backoff(failStreak)) {
				return
			}
		}
	}
}

// runLeg runs one replica-facing stream: the original request on the first
// attempt, a resume from the newest token afterwards (or the original
// again if no token has been seen — the trajectory is deterministic, and
// step dedup swallows the replay).
func (s *streamSession) runLeg(ctx context.Context, rep *Replica) *legResult {
	body := s.upstreamBody
	if s.attempt > 0 && s.lastToken != "" {
		body = s.resumeBody()
		s.g.stats.Update(func(c *metrics.GatewayStats) { c.StreamResumes++ })
		s.g.logf("resuming stream on %s (step <= %d)", rep.url, s.lastStep)
	}
	s.attempt++

	rep.acquire()
	defer rep.release()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.url+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		return &legResult{kind: legRetry}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.g.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			rep.failed(true)
		}
		s.g.logf("stream leg on %s: transport: %v", rep.url, err)
		return &legResult{kind: legRetry}
	}
	defer resp.Body.Close()

	if failoverClass(resp.StatusCode) {
		errBody, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if resp.StatusCode == http.StatusServiceUnavailable && bytes.Contains(errBody, []byte(`"draining"`)) {
			rep.setState(stateDraining)
		} else {
			rep.failed(false)
		}
		return &legResult{kind: legRetry, status: resp.StatusCode, header: resp.Header.Clone(), body: errBody}
	}
	if resp.StatusCode != http.StatusOK {
		errBody, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		rep.succeeded()
		return &legResult{kind: legTerminal, status: resp.StatusCode, header: resp.Header.Clone(), body: errBody}
	}

	if !s.pinned {
		if d := resp.Header.Get("X-Plan-Depth"); d != "" {
			s.pinnedDepth, _ = strconv.Atoi(d)
			s.pinnedAccuracy = resp.Header.Get("X-Plan-Accuracy")
			s.pinned = true
		}
		s.headerSrc = resp.Header.Clone()
	}

	progress := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var f serve.Frame
		if err := json.Unmarshal(line, &f); err != nil {
			// A torn frame: the replica died mid-write. Everything before
			// this line was intact, so resume from the last good token.
			rep.failed(true)
			s.g.logf("stream leg on %s: torn frame (%d bytes)", rep.url, len(line))
			return &legResult{kind: legRetry, progress: progress}
		}
		if f.ResumeToken != "" {
			s.lastToken = f.ResumeToken
			progress = true
		}
		if f.Interrupted {
			// The replica drained mid-stream: a clean hand-back, not a
			// failure. The interrupted frame is the gateway's to consume —
			// the client's stream just continues elsewhere.
			rep.setState(stateDraining)
			return &legResult{kind: legRetry, progress: true}
		}
		if f.Final || (s.clientEvery > 0 && f.Step > s.lastStep) {
			if err := s.forwardFrame(line, &f); err != nil {
				// The client went away; nothing left to supervise.
				return &legResult{kind: legDone}
			}
			s.lastStep = f.Step
			progress = true
		}
		if f.Final {
			rep.succeeded()
			return &legResult{kind: legDone}
		}
	}
	// Stream ended without a final frame: the replica (or its connection)
	// died between frames.
	if ctx.Err() == nil {
		rep.failed(true)
	}
	s.g.logf("stream leg on %s: ended without final frame (scan err %v)", rep.url, sc.Err())
	return &legResult{kind: legRetry, progress: progress}
}

// resumeBody builds the resume request: same job, continued from the
// newest token, with the plan pinned so the continuation cannot be
// re-planned (or browned out) onto a different trajectory.
func (s *streamSession) resumeBody() []byte {
	rr := serve.SimulateRequest{
		SolveRequest: serve.SolveRequest{
			Tenant:     s.req.Tenant,
			Compute:    s.req.Compute,
			Accuracy:   s.req.Accuracy,
			Depth:      s.req.Depth,
			Supernodes: s.req.Supernodes,
			DeadlineMS: s.req.DeadlineMS,
		},
		Steps:           s.req.Steps,
		DT:              0, // adopt the checkpoint's dt
		StreamEvery:     s.upEvery,
		CheckpointEvery: s.upCkpt,
		ResumeToken:     s.lastToken,
	}
	if s.pinned {
		rr.Depth = s.pinnedDepth
		rr.Accuracy = s.pinnedAccuracy
	}
	b, _ := json.Marshal(&rr)
	return b
}

// forwardFrame writes one upstream line to the client verbatim (modulo
// stripping gateway-injected checkpoint tokens the client never asked
// for), flushing so the stream is live.
func (s *streamSession) forwardFrame(line []byte, f *serve.Frame) error {
	if !s.started {
		copyHeaders(s.w.Header(), s.headerSrc)
		s.w.WriteHeader(http.StatusOK)
		s.started = true
	}
	out := line
	if s.stripTokens && f.ResumeToken != "" {
		clean := *f
		clean.ResumeToken = ""
		if b, err := json.Marshal(&clean); err == nil {
			out = b
		}
	}
	if _, err := s.w.Write(out); err != nil {
		return err
	}
	if _, err := s.w.Write([]byte{'\n'}); err != nil {
		return err
	}
	if s.flusher != nil {
		s.flusher.Flush()
	}
	return nil
}

// giveUp ends a stream the gateway could not keep alive.
func (s *streamSession) giveUp(last *legResult) {
	s.lost()
	if s.started {
		s.abortNow()
		return
	}
	if last != nil && last.status != 0 {
		copyHeaders(s.w.Header(), last.header)
		if last.status == http.StatusServiceUnavailable && s.w.Header().Get("Retry-After") == "" {
			s.w.Header().Set("Retry-After", "1")
		}
		s.w.WriteHeader(last.status)
		s.w.Write(last.body)
		return
	}
	writeGWError(s.w, http.StatusServiceUnavailable, "no_replica", "no replica available for stream")
}

func (s *streamSession) abort() {
	s.lost()
	s.abortNow()
}

func (s *streamSession) lost() {
	s.g.stats.Update(func(c *metrics.GatewayStats) { c.StreamsLost++ })
}

// abortNow severs a mid-flight stream: with the status long gone, a
// connection reset is the only honest error signal left.
func (s *streamSession) abortNow() {
	panic(http.ErrAbortHandler)
}

// passthroughSimulate proxies a body the gateway could not parse to one
// replica without supervision.
func (g *Gateway) passthroughSimulate(ctx context.Context, w http.ResponseWriter, body []byte) {
	rep := g.pool.Pick(nil)
	if rep == nil {
		rep = g.pool.PickAny(nil)
	}
	if rep == nil {
		writeGWError(w, http.StatusServiceUnavailable, "no_replica", "no replica available")
		return
	}
	rep.acquire()
	defer rep.release()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.url+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		writeGWError(w, http.StatusBadGateway, "upstream_error", err.Error())
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			rep.failed(true)
		}
		writeGWError(w, http.StatusBadGateway, "upstream_error", "replica unreachable")
		return
	}
	defer resp.Body.Close()
	copyHeaders(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

func backoff(streak int) time.Duration {
	d := time.Duration(streak) * 100 * time.Millisecond
	if d > maxStreamBackoff {
		d = maxStreamBackoff
	}
	return d
}

// sleepCtx sleeps d or until ctx is done; false means the context won.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

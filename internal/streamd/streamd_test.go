package streamd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"streamgpp/internal/exec"
	"streamgpp/internal/obs"
)

// newTestServer starts a server (and its HTTP front) that is drained
// at cleanup.
func newTestServer(t testing.TB, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Drain()
		hs.Close()
	})
	return s, hs
}

// submit posts a spec and returns the response code and decoded body.
func submit(t testing.TB, hs *httptest.Server, spec any) (int, map[string]any, http.Header) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out, resp.Header
}

// fetchResult blocks on the result endpoint and returns status, body
// bytes and headers.
func fetchResult(t testing.TB, hs *httptest.Server, id string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(hs.URL + "/jobs/" + id + "/result?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b, resp.Header
}

func quickSpec() JobSpec {
	return JobSpec{App: "QUICKSTART", N: 20000, Comp: 1, Seed: 1}
}

func TestSubmitRunResult(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 2})
	code, body, _ := submit(t, hs, quickSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202 (%v)", code, body)
	}
	id := body["id"].(string)
	if body["state"] != string(StateQueued) {
		t.Errorf("fresh job state %v, want queued", body["state"])
	}

	code, payload, hdr := fetchResult(t, hs, id)
	if code != http.StatusOK {
		t.Fatalf("result = %d: %s", code, payload)
	}
	if got := hdr.Get("X-Streamd-Cache"); got != "miss" {
		t.Errorf("first run cache header %q, want miss", got)
	}
	var pr ResultPayload
	if err := json.Unmarshal(payload, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.App != "QUICKSTART" || pr.StreamCycles == 0 || pr.RegularCycles == 0 || pr.Speedup <= 0 {
		t.Errorf("implausible payload: %+v", pr)
	}
	if hdr.Get("X-Streamd-Output-Hash") != obs.Hash(string(payload)) {
		t.Error("output hash header does not hash the payload bytes")
	}

	// Status endpoint agrees.
	resp, err := http.Get(hs.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.State != StateDone || st.OutputHash == "" {
		t.Errorf("status after done: %+v", st)
	}
}

// The tentpole cache guarantee: a second submission of the same spec
// is a hit whose bytes are identical to the fresh run's — on this
// server and on a brand-new one.
func TestCacheHitByteIdentity(t *testing.T) {
	spec := JobSpec{App: "GAT-SCAT-COMP", N: 15000, Comp: 2, Seed: 3, Fault: "kernel_fault:0.02"}

	_, hs := newTestServer(t, Options{Workers: 2})
	_, body1, _ := submit(t, hs, spec)
	code, fresh, hdr1 := fetchResult(t, hs, body1["id"].(string))
	if code != http.StatusOK {
		t.Fatalf("fresh run failed (%d): %s", code, fresh)
	}
	if hdr1.Get("X-Streamd-Cache") != "miss" {
		t.Fatalf("first run was a %s", hdr1.Get("X-Streamd-Cache"))
	}

	_, body2, _ := submit(t, hs, spec)
	code, cached, hdr2 := fetchResult(t, hs, body2["id"].(string))
	if code != http.StatusOK {
		t.Fatalf("cached run failed (%d): %s", code, cached)
	}
	if hdr2.Get("X-Streamd-Cache") != "hit" {
		t.Fatalf("second run was a %s, want hit", hdr2.Get("X-Streamd-Cache"))
	}
	if !bytes.Equal(fresh, cached) {
		t.Fatalf("cache hit is not byte-identical:\nfresh:  %s\ncached: %s", fresh, cached)
	}
	if hdr1.Get("X-Streamd-Output-Hash") != hdr2.Get("X-Streamd-Output-Hash") {
		t.Fatal("output hashes differ between fresh and cached")
	}

	// A brand-new server (empty cache) must reproduce the same bytes —
	// determinism is what makes content addressing sound.
	_, hs2 := newTestServer(t, Options{Workers: 1})
	_, body3, _ := submit(t, hs2, spec)
	code, fresh2, _ := fetchResult(t, hs2, body3["id"].(string))
	if code != http.StatusOK {
		t.Fatalf("second server run failed (%d): %s", code, fresh2)
	}
	if !bytes.Equal(fresh, fresh2) {
		t.Fatalf("fresh runs on two servers differ:\nA: %s\nB: %s", fresh, fresh2)
	}
}

// A malformed fault spec must come back as 400 naming the offending
// token, so the client knows what to fix.
func TestBadSpec400(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 1})
	for _, tc := range []struct {
		spec any
		want string
	}{
		{JobSpec{App: "QUICKSTART", Fault: "kernel_fault:0.5x"}, `"0.5x"`},
		{JobSpec{App: "QUICKSTART", Fault: "latency_spike:0.1,bogus:0.2"}, `"bogus"`},
		{JobSpec{App: "NOPE"}, `"NOPE"`},
		{JobSpec{App: "QUICKSTART", N: -4}, "n=-4"},
		{JobSpec{App: "WHATIF", WhatIf: "dram=zero"}, `"dram=zero"`},
		{JobSpec{App: "QUICKSTART", DeadlineMs: -1}, "deadline_ms=-1"},
		{map[string]any{"app": "QUICKSTART", "bogus_field": 1}, "bogus_field"},
	} {
		code, body, _ := submit(t, hs, tc.spec)
		if code != http.StatusBadRequest {
			t.Errorf("%+v: code %d, want 400", tc.spec, code)
			continue
		}
		if msg, _ := body["error"].(string); !strings.Contains(msg, tc.want) {
			t.Errorf("%+v: error %q does not name %s", tc.spec, msg, tc.want)
		}
	}
}

// blockingServer installs a run function that parks jobs until
// released, for deterministic saturation and drain tests. The
// returned release function is idempotent and also registered as a
// cleanup (it must run before the server's drain, or drain would wait
// on parked jobs forever).
func blockingServer(t *testing.T, opts Options) (*Server, *httptest.Server, func()) {
	t.Helper()
	s, hs := newTestServer(t, opts)
	ch := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(ch) }) }
	t.Cleanup(release)
	s.run = func(ctx context.Context, spec JobSpec, canonical, key string, base uint64, progress func(exec.ProgressFrame)) (*artifacts, error) {
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		p := []byte(`{"app":"` + spec.App + `"}`)
		return &artifacts{payload: p, hash: obs.Hash(string(p))}, nil
	}
	return s, hs, release
}

// Saturation: workers busy and queue full → 429 with Retry-After; a
// freed slot admits again.
func TestAdmissionControl429(t *testing.T) {
	s, hs, release := blockingServer(t, Options{Workers: 1, QueueDepth: 2})

	// Distinct seeds: each job must be a distinct canonical config, or
	// cache hits would mask admission behaviour.
	spec := func(i int) JobSpec { return JobSpec{App: "QUICKSTART", N: 1000, Seed: int64(i + 1)} }

	// Capacity is 1 running + QueueDepth queued. Park the first job on
	// the worker (waiting until it is claimed, so later submits don't
	// race it for a queue slot), then fill both queue slots.
	var ids []string
	code, body, _ := submit(t, hs, spec(0))
	if code != http.StatusAccepted {
		t.Fatalf("job 0: code %d, want 202", code)
	}
	ids = append(ids, body["id"].(string))
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never claimed the first job")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 1; i < 3; i++ {
		code, body, _ := submit(t, hs, spec(i))
		if code != http.StatusAccepted {
			t.Fatalf("job %d: code %d, want 202", i, code)
		}
		ids = append(ids, body["id"].(string))
	}

	code, body, hdr := submit(t, hs, spec(4))
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: code %d (%v), want 429", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "full") {
		t.Errorf("429 error %q does not mention fullness", msg)
	}
	if st := s.Stats(); st.RejectedFull == 0 {
		t.Error("RejectedFull not counted")
	}

	// Release everything: all accepted jobs must finish.
	release()
	for _, id := range ids {
		code, b, _ := fetchResult(t, hs, id)
		if code != http.StatusOK {
			t.Errorf("job %s after release: %d %s", id, code, b)
		}
	}
}

// A deadline that expires mid-run times the job out with a structured
// RunError-derived error and no partial output.
func TestDeadlineMidRunTimesOut(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 1})
	spec := JobSpec{App: "QUICKSTART", N: 1_500_000, DeadlineMs: 30}
	code, body, _ := submit(t, hs, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d (%v)", code, body)
	}
	id := body["id"].(string)
	code, res, _ := fetchResult(t, hs, id)
	if code != http.StatusConflict {
		t.Fatalf("result of timed-out job: %d %s, want 409", code, res)
	}
	var eb struct {
		Error string    `json:"error"`
		Job   *JobError `json:"job_error"`
	}
	if err := json.Unmarshal(res, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Job == nil {
		t.Fatalf("no structured job error: %s", res)
	}
	// The run had started (queue was empty), so the executor's cancel
	// path produced the error: timed_out with the exec op recorded.
	if !eb.Job.TimedOut {
		t.Errorf("job error not marked timed out: %+v", eb.Job)
	}
	if eb.Job.Op != "cancel" && eb.Job.Op != "shed" {
		t.Errorf("op %q, want cancel (or shed if the queue was slow)", eb.Job.Op)
	}
	if strings.Contains(eb.Error, "partial") || bytes.Contains(res, []byte("stream_cycles")) {
		t.Errorf("timed-out job leaked output: %s", res)
	}
}

// A deadline burned entirely in the queue sheds the job without
// running it.
func TestQueuedPastDeadlineShed(t *testing.T) {
	s, hs, release := blockingServer(t, Options{Workers: 1, QueueDepth: 4})

	// Park the worker, then queue a job with a tiny deadline.
	if _, err := s.Submit(JobSpec{App: "QUICKSTART", N: 1000, Seed: 100}); err != nil {
		t.Fatal(err)
	}
	code, body, _ := submit(t, hs, JobSpec{App: "QUICKSTART", N: 1000, Seed: 101, DeadlineMs: 20})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	id := body["id"].(string)
	time.Sleep(50 * time.Millisecond) // burn the deadline in the queue
	release()

	code, res, _ := fetchResult(t, hs, id)
	if code != http.StatusConflict {
		t.Fatalf("shed job result: %d %s, want 409", code, res)
	}
	j, _ := s.Job(id)
	if st := j.Status(); st.State != StateShed || st.Error == nil || !st.Error.TimedOut {
		t.Errorf("want shed with timed-out error, got %+v", st)
	}
	if st := s.Stats(); st.Shed == 0 {
		t.Error("Shed not counted")
	}
}

// A panicking job run must fail that job only; the worker and server
// survive and keep serving.
func TestPanicIsolation(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 1})
	s.run = func(ctx context.Context, spec JobSpec, canonical, key string, base uint64, progress func(exec.ProgressFrame)) (*artifacts, error) {
		if spec.Seed == 666 {
			panic("synthetic job crash")
		}
		return runSpec(ctx, spec, canonical, key, base, progress)
	}

	code, body, _ := submit(t, hs, JobSpec{App: "QUICKSTART", N: 1000, Seed: 666})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	code, res, _ := fetchResult(t, hs, body["id"].(string))
	if code != http.StatusConflict {
		t.Fatalf("panicked job result: %d %s", code, res)
	}
	if !bytes.Contains(res, []byte("synthetic job crash")) {
		t.Errorf("panic message lost: %s", res)
	}
	if st := s.Stats(); st.Panics != 1 || st.Failed != 1 {
		t.Errorf("stats after panic: %+v", st)
	}

	// The server still runs jobs.
	code, body, _ = submit(t, hs, quickSpec())
	if code != http.StatusAccepted {
		t.Fatalf("post-panic submit: %d", code)
	}
	if code, res, _ := fetchResult(t, hs, body["id"].(string)); code != http.StatusOK {
		t.Fatalf("post-panic job: %d %s", code, res)
	}
}

// Drain finishes accepted jobs, rejects new ones and flips readiness.
func TestDrainLifecycle(t *testing.T) {
	s, hs := newTestServer(t, Options{Workers: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		code, body, _ := submit(t, hs, JobSpec{App: "QUICKSTART", N: 5000, Seed: int64(i + 1)})
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, code)
		}
		ids = append(ids, body["id"].(string))
	}
	s.Drain()

	// Every accepted job reached a terminal state.
	for _, id := range ids {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("accepted job %s lost", id)
		}
		if st := j.Status(); !st.State.Terminal() {
			t.Errorf("job %s state %s after drain", id, st.State)
		}
	}

	// New submissions are rejected with 503; readiness flips.
	code, body, _ := submit(t, hs, quickSpec())
	if code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: %d (%v), want 503", code, body)
	}
	resp, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz while draining: %d, want 200 (process lives)", resp.StatusCode)
	}
	// Drain again: must be idempotent.
	s.Drain()
}

// Trace and coverage artifacts download for jobs that asked for them,
// 404 otherwise.
func TestArtifactDownloads(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 1})
	code, body, _ := submit(t, hs, JobSpec{App: "QUICKSTART", N: 20000, Trace: true, Coverage: true})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	id := body["id"].(string)
	if code, res, _ := fetchResult(t, hs, id); code != http.StatusOK {
		t.Fatalf("job failed: %d %s", code, res)
	}

	get := func(path string) (int, []byte) {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	code, trace := get("/jobs/" + id + "/trace?wait=1")
	if code != http.StatusOK {
		t.Fatalf("trace: %d %s", code, trace)
	}
	if !bytes.Contains(trace, []byte("traceEvents")) {
		t.Errorf("trace is not Chrome trace JSON: %.120s", trace)
	}
	code, cov := get("/jobs/" + id + "/coverage?wait=1")
	if code != http.StatusOK {
		t.Fatalf("coverage: %d %s", code, cov)
	}
	var covObj map[string]any
	if err := json.Unmarshal(cov, &covObj); err != nil || covObj["fast_accesses"] == nil {
		t.Errorf("coverage report malformed (%v): %.120s", err, cov)
	}

	// A job without artifacts 404s.
	code, body2, _ := submit(t, hs, quickSpec())
	if code != http.StatusAccepted {
		t.Fatal("submit")
	}
	id2 := body2["id"].(string)
	fetchResult(t, hs, id2)
	if code, msg := get("/jobs/" + id2 + "/trace"); code != http.StatusNotFound {
		t.Errorf("trace without trace=true: %d %s", code, msg)
	}
	if code, _ := get("/jobs/nope"); code != http.StatusNotFound {
		t.Errorf("unknown job: %d", code)
	}
}

// WHATIF jobs run the cross-checked analysis and cache like any other
// job.
func TestWhatIfJob(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 1})
	spec := JobSpec{App: "WHATIF", WhatIf: "ident,1ctx", Quick: true}
	code, body, _ := submit(t, hs, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d (%v)", code, body)
	}
	code, res, _ := fetchResult(t, hs, body["id"].(string))
	if code != http.StatusOK {
		t.Fatalf("whatif job: %d %s", code, res)
	}
	var pr ResultPayload
	if err := json.Unmarshal(res, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.WhatIf) != 2 || pr.WhatIfFailed != 0 {
		t.Errorf("whatif rows: %+v", pr)
	}
	if !strings.Contains(pr.Report, "What-if") || !strings.Contains(pr.Report, "1ctx") {
		t.Errorf("report table missing:\n%s", pr.Report)
	}

	_, body2, _ := submit(t, hs, spec)
	_, res2, hdr := fetchResult(t, hs, body2["id"].(string))
	if hdr.Get("X-Streamd-Cache") != "hit" || !bytes.Equal(res, res2) {
		t.Error("whatif result did not cache byte-identically")
	}
}

// The server writes one valid ledger entry per fresh run and repairs a
// torn tail at startup.
func TestLedgerWriteAndStartupRepair(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "streamd.jsonl")

	s, hs := newTestServer(t, Options{Workers: 1, LedgerPath: path})
	spec := quickSpec()
	_, body, _ := submit(t, hs, spec)
	if code, res, _ := fetchResult(t, hs, body["id"].(string)); code != http.StatusOK {
		t.Fatalf("job: %d %s", code, res)
	}
	// A cache hit must not append (it records no new run).
	_, body2, _ := submit(t, hs, spec)
	fetchResult(t, hs, body2["id"].(string))
	s.Drain()

	entries, stats, err := obs.ReadLedgerStats(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || stats.TornTail {
		t.Fatalf("want 1 clean entry, got %d (torn=%v)", len(entries), stats.TornTail)
	}
	e := entries[0]
	if e.Source != "streamd" || e.Experiment != "streamd/QUICKSTART" || e.OutputHash == "" || e.ConfigHash == "" {
		t.Errorf("ledger entry: %+v", e)
	}

	// Tear the tail (a killed writer) and restart: New must repair.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, `{"schema":2,"experiment":"streamd/trunc`)
	f.Close()

	s2, err := New(Options{Workers: 1, LedgerPath: path})
	if err != nil {
		t.Fatalf("restart over torn ledger: %v", err)
	}
	defer s2.Drain()
	if !s2.Stats().LedgerTornTail {
		t.Error("startup repair not reported in stats")
	}
	entries2, stats2, err := obs.ReadLedgerStats(path)
	if err != nil || len(entries2) != 1 || stats2.TornTail {
		t.Fatalf("repaired ledger: %d entries, torn=%v, err=%v", len(entries2), stats2.TornTail, err)
	}
}

// Per-job fault derivation: two specs differing only in fault base
// seed produce different schedules (and different payloads), while the
// same spec replays identically — the replayability contract.
func TestFaultSeedDerivation(t *testing.T) {
	ctx := context.Background()
	spec := JobSpec{App: "QUICKSTART", N: 30000, Comp: 1, Seed: 1, Fault: "kernel_fault:0.05"}
	spec.normalize()

	runOnce := func(sp JobSpec, base uint64) *artifacts {
		canonical := sp.Canonical(base)
		a, err := runSpec(ctx, sp, canonical, obs.Hash(canonical), base, nil)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a1 := runOnce(spec, 1)
	a2 := runOnce(spec, 1)
	if !bytes.Equal(a1.payload, a2.payload) {
		t.Fatal("same spec and base seed did not replay byte-identically")
	}
	var p1 ResultPayload
	json.Unmarshal(a1.payload, &p1)
	if p1.FaultSeed == 0 {
		t.Fatal("payload does not record the derived fault seed")
	}
	a3 := runOnce(spec, 2)
	var p3 ResultPayload
	json.Unmarshal(a3.payload, &p3)
	if p3.FaultSeed == p1.FaultSeed {
		t.Error("different base seeds derived the same injector seed")
	}
}

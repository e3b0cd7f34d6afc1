package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"streamgpp/internal/obs"
	"streamgpp/internal/streamd"
)

// hitSpecs is how many distinct specs client H cycles through. They are
// run once while the service is set up, so every later submission of
// one is a cache hit.
const hitSpecs = 16

// service is one in-process streamd behind an ephemeral loopback
// listener, with its ledger and event log in a temporary directory.
type service struct {
	srv    *streamd.Server
	hs     *http.Server
	served chan error
	dir    string
	base   string
	client *http.Client

	hits  [][]byte          // client H's job bodies
	fills map[string]string // job body → output hash of the run that filled the cache
}

// startService starts streamd, waits for /readyz and fills the cache
// with client H's specs. The set-up is one trace: a streamd.setup span
// over streamd.new, http.readyz and the client.fill jobs.
func startService(ctx context.Context, tr *tracer, tmpRoot string, apps []string, n int, seed int64) (*service, error) {
	trace := tr.newTrace()
	root := tr.begin("streamd.setup", trace, 0)
	defer tr.end(root)
	dir, err := os.MkdirTemp(tmpRoot, "streamd-")
	if err != nil {
		return nil, err
	}
	sp := tr.begin("streamd.new", trace, root)
	srv, err := streamd.New(streamd.Options{
		Workers: 2,
		// Large enough that no entry is evicted during a run, so every
		// one of client H's submissions stays a hit.
		CacheEntries: 1 << 16,
		LedgerPath:   filepath.Join(dir, "ledger.jsonl"),
		EventsPath:   filepath.Join(dir, "events.jsonl"),
	})
	tr.end(sp)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		os.RemoveAll(dir)
		return nil, err
	}
	s := &service{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		dir:    dir,
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		}},
		fills: make(map[string]string),
	}
	go func() { s.served <- s.hs.Serve(ln) }()

	sp = tr.begin("http.readyz", trace, root)
	_, err = s.do(ctx, http.MethodGet, "/readyz", nil, http.StatusOK, nil)
	tr.end(sp)
	if err != nil {
		s.close()
		return nil, err
	}
	for i := 0; i < hitSpecs; i++ {
		body := specBody(apps[i%len(apps)], n, spreadSeed(seed, i))
		res, err := s.job(ctx, tr, "fill", trace, root, body)
		if err == nil && res.cache != "miss" {
			err = fmt.Errorf("filling the cache: job came back as a cache %s", res.cache)
		}
		if err != nil {
			s.close()
			return nil, err
		}
		s.hits = append(s.hits, body)
		s.fills[string(body)] = res.hash
	}
	return s, nil
}

// spreadSeed derives the k-th job seed of a run from the workload seed.
// Job seeds are never 0, which streamd would normalise to 1.
func spreadSeed(seed int64, k int) int64 { return (seed&0xfffff)<<24 + int64(k) + 1 }

func specBody(app string, n int, seed int64) []byte {
	b, _ := json.Marshal(streamd.JobSpec{App: app, N: n, Comp: 1, Seed: seed}) // cannot fail: plain struct
	return b
}

// close stops the listener, drains the server and removes its files.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	s.srv.Drain()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// jobResult is one completed job as the client saw it.
type jobResult struct {
	cache string // X-Streamd-Cache: "hit" or "miss"
	hash  string // X-Streamd-Output-Hash
}

// job submits one spec and waits for its result. kind names the
// client's spans: client.<kind>, under parent, with http.<kind>_submit
// and http.<kind>_result below it. A non-2xx response, or a result
// whose hash header does not match its bytes, is an error.
func (s *service) job(ctx context.Context, tr *tracer, kind string, trace uint32, parent int32, body []byte) (jobResult, error) {
	root := tr.begin("client."+kind, trace, parent)
	defer tr.end(root)

	sp := tr.begin("http."+kind+"_submit", trace, root)
	var st struct {
		ID string `json:"id"`
	}
	_, err := s.do(ctx, http.MethodPost, "/jobs", body, http.StatusAccepted, &st)
	tr.end(sp)
	if err != nil {
		return jobResult{}, err
	}

	sp = tr.begin("http."+kind+"_result", trace, root)
	resp, err := s.do(ctx, http.MethodGet, "/jobs/"+st.ID+"/result?wait=1", nil, http.StatusOK, nil)
	tr.end(sp)
	if err != nil {
		return jobResult{}, fmt.Errorf("%s: %w", st.ID, err)
	}
	res := jobResult{cache: resp.header.Get("X-Streamd-Cache"), hash: resp.header.Get("X-Streamd-Output-Hash")}
	if got := obs.Hash(string(resp.body)); got != res.hash {
		return res, fmt.Errorf("%s: payload hashes to %s, header says %s", st.ID, got, res.hash)
	}
	return res, nil
}

type response struct {
	header http.Header
	body   []byte
}

// do makes one request and checks its status; out, if non-nil,
// receives the decoded JSON body.
func (s *service) do(ctx context.Context, method, path string, body []byte, want int, out any) (response, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return response{}, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return response{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return response{}, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return response{}, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return response{}, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return response{header: resp.Header, body: b}, nil
}

// clientStats is one closed-loop client's record of a run's service
// slices.
type clientStats struct {
	latencies []float64 // per completed job, in ms, in order
	apps      []string  // the app of each completed job
	failed    int
	jobs      int   // jobs submitted, completed or not
	ends      []int // latencies[:ends[i]] were recorded by the end of slice i
}

// windows splits each slice's latencies into consecutive windows of k
// jobs, dropping the slice's last partial window; a slice of fewer than
// k jobs is one window.
func (st *clientStats) windows(k int) [][]float64 {
	var out [][]float64
	begin := 0
	for _, end := range st.ends {
		n := min(k, end-begin)
		for i := begin; n > 0 && i+n <= end; i += n {
			out = append(out, st.latencies[i:i+n])
		}
		begin = end
	}
	return out
}

// fastest returns each app's fastest job.
func (st *clientStats) fastest() map[string]float64 {
	f := map[string]float64{}
	for i, l := range st.latencies {
		if g, ok := f[st.apps[i]]; !ok || l < g {
			f[st.apps[i]] = l
		}
	}
	return f
}

// missSource yields client M's job specs. M works in rounds: each round
// submits every entry of apps once, in an order shuffled by the seed,
// so the mix of apps, and with it the latency distribution, is the
// same in every run. Every spec has a seed of its own, so every job is
// a cache miss.
type missSource struct {
	apps  []string
	n     int
	seed  int64
	rng   *rand.Rand
	round []string
	k     int
}

func newMissSource(apps []string, n int, seed int64) *missSource {
	return &missSource{apps: apps, n: n, seed: seed, rng: rand.New(rand.NewSource(seed))}
}

func (m *missSource) next() (body []byte, app string) {
	if m.roundDone() {
		m.round = append(m.round[:0], m.apps...)
		m.rng.Shuffle(len(m.round), func(i, j int) { m.round[i], m.round[j] = m.round[j], m.round[i] })
	}
	app = m.round[m.k%len(m.round)]
	body = specBody(app, m.n, spreadSeed(m.seed, hitSpecs+m.k))
	m.k++
	return body, app
}

// roundDone reports whether the last job returned ended a round.
func (m *missSource) roundDone() bool { return m.k%len(m.apps) == 0 }

// runClients runs client H until it has made hits jobs, then client M
// for missTime, finishing M's last round. Each is a closed loop: it
// submits its next job only once the previous one's result is back. H
// cycles through the specs that filled the cache, so its jobs are cache
// hits; M's come from src and are cache misses. The two run one after
// the other, not at once: on a machine of two cores shared with other
// tenants, a hit that competes with a simulation for the cores measures
// the host's scheduler more than the service path.
func (s *service) runClients(ctx context.Context, tr *tracer, hits int, missTime time.Duration, hit, miss *clientStats, src *missSource, logf func(string, ...any)) {
	loop := func(st *clientStats, kind string, more func(start time.Time) bool, next func() (body []byte, app string, check func(jobResult) error)) {
		start := time.Now()
		for more(start) {
			body, app, check := next()
			st.jobs++
			t0 := time.Now()
			res, err := s.job(ctx, tr, kind, tr.newTrace(), 0, body)
			if err == nil {
				err = check(res)
			}
			if err != nil {
				st.failed++
				logf("%s job %d failed: %v", kind, st.jobs, err)
				if ctx.Err() != nil {
					break
				}
				continue
			}
			st.latencies = append(st.latencies, float64(time.Since(t0))/float64(time.Millisecond))
			st.apps = append(st.apps, app)
		}
		st.ends = append(st.ends, len(st.latencies))
	}
	k := 0
	loop(hit, "hit", func(time.Time) bool { return k < hits }, func() ([]byte, string, func(jobResult) error) {
		body := s.hits[k%len(s.hits)]
		k++
		return body, "", func(r jobResult) error {
			if r.cache != "hit" {
				return fmt.Errorf("came back as a cache %s", r.cache)
			}
			if want := s.fills[string(body)]; r.hash != want {
				return fmt.Errorf("output hash %s, but the run that filled the cache gave %s", r.hash, want)
			}
			return nil
		}
	})
	more := func(start time.Time) bool { return time.Since(start) < missTime || !src.roundDone() }
	loop(miss, "miss", more, func() ([]byte, string, func(jobResult) error) {
		body, app := src.next()
		return body, app, func(r jobResult) error {
			if r.cache != "miss" {
				return fmt.Errorf("came back as a cache %s", r.cache)
			}
			return nil
		}
	})
}

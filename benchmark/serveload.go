package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"asyncio/internal/campaign"
	"asyncio/internal/campaign/store"
)

// warmCacheSize is the point LRU of serve_warm (the daemon's -cache
// flag), smaller than the pool's 140 point keys so reads reach the store.
const warmCacheSize = 64

// daemon is an in-process asyncio-serve: store, campaign server and an
// HTTP listener on loopback, plus the client that talks to it.
type daemon struct {
	st     *store.Store
	srv    *campaign.Server
	ts     *httptest.Server
	client *http.Client
}

// startDaemon opens the store in dir (fsync off), starts the server with
// as many workers as there are clients and waits for /readyz. The time
// from store.Open to the 200 is the recovery time. Specs leave `shards`
// unset, so points run on the daemon's default engine.
func startDaemon(dir string, workers, cacheSize int) (*daemon, time.Duration, error) {
	start := time.Now()
	st, rep, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return nil, 0, err
	}
	srv := campaign.NewServer(campaign.Config{Workers: workers, CacheSize: cacheSize, Store: st, StoreRecovery: rep})
	ts := httptest.NewServer(srv.Handler())
	d := &daemon{st: st, srv: srv, ts: ts, client: ts.Client()}
	resp, err := d.client.Get(ts.URL + "/readyz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/readyz: %s", resp.Status)
		}
	}
	if err == nil && !rep.Clean() {
		err = fmt.Errorf("store recovery was not clean: %s", rep.Summary())
	}
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

// stop drains the server and closes the store; it returns once every
// goroutine the daemon started has ended.
func (d *daemon) stop() error {
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if cerr := d.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// do sends one scripted request and returns the body.
func (d *daemon) do(r svcRequest) ([]byte, error) {
	resp, err := d.client.Post(d.ts.URL+"/v1/campaigns?wait="+r.Format, "application/json", strings.NewReader(r.Spec))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %.200s", resp.Status, body)
	}
	if len(body) == 0 {
		return nil, fmt.Errorf("empty body")
	}
	return body, nil
}

// bodyLedger remembers the digest of the first body served for each
// content and format — the bytes the spec produced cold — and checks
// every later body against it.
type bodyLedger struct {
	mu   sync.Mutex
	seen map[string][sha256.Size]byte
}

func newBodyLedger() *bodyLedger { return &bodyLedger{seen: make(map[string][sha256.Size]byte)} }

func (l *bodyLedger) check(r svcRequest, body []byte) error {
	key := r.Content + "?" + r.Format
	sum := sha256.Sum256(body)
	l.mu.Lock()
	defer l.mu.Unlock()
	if want, ok := l.seen[key]; ok {
		if want != sum {
			return fmt.Errorf("%s body differs from the bytes the spec produced cold", key)
		}
		return nil
	}
	l.seen[key] = sum
	return nil
}

// served is one completed request of a closed-loop pass.
type served struct {
	req     svcRequest
	latency time.Duration
	bytes   int
	err     error
}

// closedLoop has the clients take the requests in script order: each
// client sends the next unsent request only when its previous one has
// completed. Were the script dealt out in advance, a client whose share
// is slower would fall hundreds of positions behind the other, and which
// requests hit the LRU would depend on that lag. Latency is send to last
// body byte. Every body goes through the ledger.
func closedLoop(d *daemon, clients int, reqs []svcRequest, ledger *bodyLedger, tr *Tracer, parent *OpenSpan) []served {
	out := make([]served, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(reqs); i = int(next.Add(1)) - 1 {
				sp := tr.Start("request."+reqs[i].Class, parent, tr.NewRequest())
				start := time.Now()
				body, err := d.do(reqs[i])
				lat := time.Since(start)
				sp.End()
				if err == nil {
					err = ledger.check(reqs[i], body)
				}
				out[i] = served{req: reqs[i], latency: lat, bytes: len(body), err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// record adds a pass's requests to the repetition sample.
func (s *repSample) record(pass []served) {
	for _, r := range pass {
		s.ops++
		s.latencies = append(s.latencies, r.latency.Seconds())
		s.servedBytes += int64(r.bytes)
		if r.err != nil {
			s.failures = append(s.failures, fmt.Sprintf("%s %s?%s: %v", r.req.Class, r.req.Content, r.req.Format, r.err))
		}
	}
}

// runServeCold is request → bytes when nothing is cached. The store is
// on, fsync off, two tenants; ids never repeat across the warm-up and the
// repetitions, so every request computes.
func runServeCold(rc *runCtx) error {
	d, _, err := startDaemon(filepath.Join(rc.scratch, "cold-store"), rc.clients, 0)
	if err != nil {
		return err
	}
	ledger := newBodyLedger()
	var id int64
	next := func() int64 { id++; return id }
	rep := 0
	var lastPass []served
	err = rc.timedReps(func(s *repSample) error {
		root := rc.cur.Start("repetition", nil, 0)
		lastPass = closedLoop(d, rc.clients, coldScript(rc.seed, rep, next), ledger, rc.cur, root)
		root.End()
		rep++
		s.record(lastPass)
		return nil
	})
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	// Every cold body is a first sighting for the ledger, so a sample —
	// the last request of each class and format in the final repetition —
	// is recomputed outside the daemon and compared.
	last := &rc.reps[len(rc.reps)-1]
	checked := make(map[string]bool)
	for i := len(lastPass) - 1; i >= 0; i-- {
		r := lastPass[i].req
		if checked[r.Class+r.Format] {
			continue
		}
		checked[r.Class+r.Format] = true
		if err := recheckCold(r, ledger); err != nil {
			last.failures = append(last.failures, err.Error())
		}
	}
	return nil
}

// recheckCold computes the request's content directly through
// campaign.ComputePoint, renders the requested format and checks it
// against the digest of the body the daemon served.
func recheckCold(r svcRequest, ledger *bodyLedger) error {
	spec, err := campaign.DecodeSpec([]byte(r.Spec))
	if err != nil {
		return err
	}
	n, err := spec.PointCount()
	if err != nil {
		return err
	}
	payloads := make([][]byte, n)
	for i := range payloads {
		if payloads[i], err = campaign.ComputePoint(spec, i); err != nil {
			return err
		}
	}
	var body []byte
	switch {
	case spec.Kind == "sweep":
		body, err = campaign.AssembleSweepTable(spec, payloads)
	case r.Format == "bundle":
		body = payloads[0]
	default:
		var bundle map[string][]byte
		bundle, err = campaign.DecodeBundle(payloads[0])
		body = bundle[map[string]string{
			"perfetto": campaign.ArtifactPerfetto,
			"metrics":  campaign.ArtifactMetrics,
			"trace":    campaign.ArtifactTrace,
		}[r.Format]]
	}
	if err != nil {
		return err
	}
	return ledger.check(r, body)
}

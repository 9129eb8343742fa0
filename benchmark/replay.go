package main

import (
	"fmt"
	"path/filepath"
	"strings"

	"asyncio/internal/campaign"
	"asyncio/internal/campaign/store"
)

// sessionPool is the small known content of the traced pass's daemon
// session: two sweeps (16 point keys) and one run per shape (12),
// against a 16-entry point LRU.
func sessionPool() warmPool {
	const base = 1 // the session has a store of its own, so any ids do
	p := warmPool{Sweeps: []svcRequest{sweepSpec("fig5", tenantA, base), sweepSpec("fig6", tenantA, base+1)}}
	for i, c := range runCombos() {
		p.Runs = append(p.Runs, runSpec(c, tenantA, base+int64(i)))
	}
	return p
}

const sessionCacheSize = 16

// classP50 is the median client-side latency of each request class in
// the passes, in seconds.
func classP50(passes ...[]served) map[string]float64 {
	by := make(map[string][]float64)
	for _, pass := range passes {
		for _, r := range pass {
			by[r.req.Class] = append(by[r.req.Class], r.latency.Seconds())
		}
	}
	out := make(map[string]float64, len(by))
	for class, lat := range by {
		out[class] = median(lat)
	}
	return out
}

func counterValue(srv *campaign.Server, name string) float64 {
	if c := srv.Metrics().FindCounter(name); c != nil {
		return float64(c.Value())
	}
	return 0
}

// replayer is the daemon's request path taken apart: the same public
// functions the server calls, in the server's order, one span each.
type replayer struct {
	tr    *Tracer
	cache *campaign.Cache
	st    *store.Store
	// req and lookup are the request being replayed and its open cache
	// lookup: the store read a lookup falls back to is that span's child.
	req    int
	lookup *OpenSpan
}

// resetCache installs an empty point LRU that falls back to the store,
// as the server wires it.
func (rp *replayer) resetCache() {
	rp.cache = campaign.NewCache(0)
	rp.cache.SetFallback(func(key string) ([]byte, bool) {
		sp := rp.tr.Start("store.get", rp.lookup, rp.req)
		val, ok, err := rp.st.Get(key)
		sp.End()
		return val, ok && err == nil
	})
}

// resolvePoints gets every point of the spec from the cache or, on a
// miss, computes and stores it. One span covers the loop and the
// per-point spans are its children, so the time between them is its self
// time and not a hole in the request.
func (rp *replayer) resolvePoints(spec *campaign.Spec, root *OpenSpan) ([][]byte, error) {
	resolve := rp.tr.Start("campaign.resolve_points", root, rp.req)
	defer resolve.End()
	n, err := spec.PointCount()
	if err != nil {
		return nil, err
	}
	payloads := make([][]byte, n)
	for i := range payloads {
		key := spec.PointKey(i)
		rp.lookup = rp.tr.Start("campaign.cache_get", resolve, rp.req)
		val, ok := rp.cache.Get(key)
		rp.lookup.End()
		if !ok {
			name := "campaign.compute_run"
			if spec.Kind == "sweep" {
				name = "campaign.compute_sweep_point"
			}
			sp := rp.tr.Start(name, resolve, rp.req)
			val, err = campaign.ComputePoint(spec, i)
			sp.End()
			if err != nil {
				return nil, err
			}
			sp = rp.tr.Start("campaign.cache_put", resolve, rp.req)
			rp.cache.Put(key, val)
			sp.End()
			sp = rp.tr.Start("store.put", resolve, rp.req)
			err = rp.st.Put(key, val)
			sp.End()
			if err != nil {
				return nil, err
			}
		}
		payloads[i] = val
	}
	return payloads, nil
}

// request replays one request of the given class and returns its point
// payloads. held, when non-nil, are results the campaign already holds:
// the dedupe and artifact paths never touch the cache.
func (rp *replayer) request(class string, r svcRequest, held [][]byte) ([][]byte, error) {
	rp.req = rp.tr.NewRequest()
	root := rp.tr.Start("request."+class, nil, rp.req)
	defer root.End()

	sp := rp.tr.Start("campaign.decode_spec", root, rp.req)
	spec, err := campaign.DecodeSpec([]byte(r.Spec))
	sp.End()
	if err != nil {
		return nil, err
	}
	payloads := held
	if payloads == nil {
		if payloads, err = rp.resolvePoints(spec, root); err != nil {
			return nil, err
		}
	}
	if spec.Kind == "sweep" {
		sp = rp.tr.Start("campaign.assemble_table", root, rp.req)
		_, err = campaign.AssembleSweepTable(spec, payloads)
	} else {
		sp = rp.tr.Start("campaign.decode_bundle", root, rp.req)
		_, err = campaign.DecodeBundle(payloads[0])
	}
	sp.End()
	return payloads, err
}

// replayRounds is how often each warm class is replayed.
const replayRounds = 40

// decomposedReplay replays requests of every class against a cache and a
// store of its own, and returns the spans it recorded.
func decomposedReplay(tr *Tracer, dir string) ([]Span, error) {
	st, _, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return nil, err
	}
	before := len(tr.Spans())
	rp := &replayer{tr: tr, st: st}
	rp.resetCache()
	pool := sessionPool()
	runs, sweep := pool.Runs[:4], pool.Sweeps[0]

	held := make(map[string][][]byte)
	err = func() error {
		for _, r := range append([]svcRequest{sweep}, runs...) {
			class := classColdRun
			if r.Content == sweep.Content {
				class = classColdSweep
			}
			p, err := rp.request(class, r, nil)
			if err != nil {
				return err
			}
			held[r.Content] = p
		}
		for i := 0; i < replayRounds; i++ {
			run := runs[i%len(runs)]
			if _, err := rp.request(classDedupe, sweep, held[sweep.Content]); err != nil {
				return err
			}
			if _, err := rp.request(classLRU, sweep, nil); err != nil {
				return err
			}
			if _, err := rp.request(classArtifact, run, held[run.Content]); err != nil {
				return err
			}
		}
		// A restart: the store is flushed and reopened, the LRU is empty,
		// and every point comes back through the fallback.
		if err := st.Close(); err != nil {
			return err
		}
		if st, _, err = store.Open(store.Options{Dir: dir}); err != nil {
			return err
		}
		rp.st = st
		rp.resetCache()
		for _, r := range append([]svcRequest{sweep}, runs...) {
			if _, err := rp.request(classRecovered, r, nil); err != nil {
				return err
			}
		}
		return nil
	}()
	if cerr := rp.st.Close(); err == nil {
		err = cerr
	}
	return tr.Spans()[before:], err
}

// replayLedger turns the replay's spans into ledger rows: the median
// self time of each step, and per request class the share of the request
// spans that their children cover.
func replayLedger(l *ledger, spans []Span) error {
	self := selfTimes(spans)
	byName := make(map[string][]float64)
	children := make(map[int][]Span)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(self[s.ID]))
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	total, covered := make(map[string]int64), make(map[string]int64)
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "request.") {
			total[s.Name] += s.End - s.Start
			covered[s.Name] += coveredBy(s, children[s.ID])
		}
	}
	for name, t := range total {
		l.coverage[name[len("request."):]] = float64(covered[name]) / float64(t)
	}
	for _, row := range []struct {
		span, metric, unit string
		perNs              float64
	}{
		{"campaign.compute_run", "campaign.compute_run.ms_per_op", "ms", 1e6},
		{"campaign.assemble_table", "campaign.assemble_table.us_per_op", "us", 1e3},
		{"campaign.decode_bundle", "campaign.decode_bundle.us_per_op", "us", 1e3},
	} {
		if len(byName[row.span]) == 0 {
			return fmt.Errorf("replay recorded no %s span", row.span)
		}
		l.put(row.metric, row.unit, median(byName[row.span])/row.perNs)
	}
	return nil
}

func campaignProbes() []probe {
	return []probe{
		{"campaign.hot_path", func(l *ledger) error {
			// The steps too short to time through a span: spec decode,
			// canonicalisation and hashing, and the point LRU.
			const specs, keys = 5000, 200_000
			body := []byte(sessionPool().Runs[0].Spec)
			dec, err := measure(func() error {
				for i := 0; i < specs; i++ {
					spec, err := campaign.DecodeSpec(body)
					if err != nil {
						return err
					}
					_ = spec.ID()
				}
				return nil
			})
			if err != nil {
				return err
			}
			cache := campaign.NewCache(1024)
			names := make([]string, 1024)
			for i := range names {
				names[i] = fmt.Sprintf("%016x/%d", i, i%8)
			}
			val := make([]byte, 64)
			put, _ := measure(func() error {
				for i := 0; i < keys; i++ {
					cache.Put(names[i%len(names)], val)
				}
				return nil
			})
			get, _ := measure(func() error {
				for i := 0; i < keys; i++ {
					cache.Get(names[i%len(names)])
				}
				return nil
			})
			l.put("campaign.decode_spec.us_per_op", "us", dec.nsPer(specs)/1e3)
			l.put("campaign.cache_put.ns_per_op", "ns", put.nsPer(keys))
			l.put("campaign.cache_get.ns_per_op", "ns", get.nsPer(keys))
			return nil
		}},
		{"campaign.replay", func(l *ledger) error {
			spans, err := decomposedReplay(l.tracer, filepath.Join(l.scratch, "replay-store"))
			if err != nil {
				return err
			}
			return replayLedger(l, spans)
		}},
		{"campaign.session", func(l *ledger) error {
			// A short daemon session, every request class timed from the
			// client: cold, then the warm classes, a restart, recovered.
			ws, err := startWarmSession(filepath.Join(l.scratch, "session-store"), l.clients, sessionCacheSize, sessionPool())
			if err != nil {
				return err
			}
			defer ws.stop()
			root := l.tracer.Start("campaign.session", nil, 0)
			defer root.End()
			cold, err := ws.populate(l.tracer, root)
			if err != nil {
				return err
			}
			var bundleBytes []float64
			for _, r := range ws.pool.Runs {
				body, err := ws.d.do(r.with("populate", "bundle"))
				if err != nil {
					return err
				}
				bundleBytes = append(bundleBytes, float64(len(body)))
			}
			warm := ws.serve(warmScriptOf(ws.pool, 1, 600, 60, 120), l.tracer, root)
			if err := firstError("serving", warm); err != nil {
				return err
			}
			hits, misses := counterValue(ws.d.srv, "campaign.cache.hits"), counterValue(ws.d.srv, "campaign.cache.misses")
			took, err := ws.restart()
			if err != nil {
				return err
			}
			recovered := ws.serve(ws.pool.all(classRecovered), l.tracer, root)
			if err := firstError("recovering", recovered); err != nil {
				return err
			}
			// A few more never-seen tenants: their points come from the
			// 16-entry LRU or, mostly, from the store.
			if err := firstError("serving", ws.serve(warmScriptOf(ws.pool, 2, 0, 60, 0), nil, nil)); err != nil {
				return err
			}
			storeHits, lruHits := counterValue(ws.d.srv, "campaign.store.hits"), counterValue(ws.d.srv, "campaign.cache.hits")
			if err := ws.stop(); err != nil {
				return err
			}
			p50 := classP50(cold, warm, recovered)
			for _, class := range []string{classDedupe, classLRU, classArtifact, classRecovered} {
				l.put("campaign.class."+class+".p50_us", "us", p50[class]*1e6)
			}
			for _, class := range []string{classColdRun, classColdSweep} {
				l.put("campaign.class."+class+".p50_ms", "ms", p50[class]*1e3)
			}
			l.put("campaign.compute_run.bundle_kb", "KB", median(bundleBytes)/1e3)
			l.put("campaign.cache.hit_ratio", "ratio", hits/(hits+misses))
			l.put("campaign.store.hit_ratio", "ratio", storeHits/lruHits)
			l.put("campaign.recover.ms_per_restart", "ms", took.Seconds()*1e3)
			return nil
		}},
	}
}

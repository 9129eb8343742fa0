package main

import (
	"fmt"
	"time"
)

// warmSession is a daemon over a pool of known content: it computes the
// pool, and restarts the daemon on request. serve_warm is a warmSession
// over the full pool; the traced pass replays a small one to time each
// request class.
type warmSession struct {
	dir       string
	clients   int
	cacheSize int
	pool      warmPool
	ledger    *bodyLedger
	d         *daemon
}

func startWarmSession(dir string, clients, cacheSize int, pool warmPool) (*warmSession, error) {
	d, _, err := startDaemon(dir, clients, cacheSize)
	if err != nil {
		return nil, err
	}
	return &warmSession{dir: dir, clients: clients, cacheSize: cacheSize, pool: pool, ledger: newBodyLedger(), d: d}, nil
}

// stop ends the session's daemon, if one is running.
func (ws *warmSession) stop() error {
	if ws.d == nil {
		return nil
	}
	d := ws.d
	ws.d = nil
	return d.stop()
}

// serve runs a closed-loop pass against the current daemon.
func (ws *warmSession) serve(reqs []svcRequest, tr *Tracer, parent *OpenSpan) []served {
	return closedLoop(ws.d, ws.clients, reqs, ws.ledger, tr, parent)
}

// firstError is the first failed request of a pass, as an error.
func firstError(what string, pass []served) error {
	for _, r := range pass {
		if r.err != nil {
			return fmt.Errorf("%s %s?%s: %w", what, r.req.Content, r.req.Format, r.err)
		}
	}
	return nil
}

// populate computes every pool content once (the returned pass: cold
// requests) and then fetches it in every other format it is later asked
// for, so the ledger holds the cold bytes of every body a script can
// receive.
func (ws *warmSession) populate(tr *Tracer, parent *OpenSpan) ([]served, error) {
	var cold []svcRequest
	for _, r := range ws.pool.Sweeps {
		cold = append(cold, r.with(classColdSweep, sweepFormats[0]))
	}
	for _, r := range ws.pool.Runs {
		cold = append(cold, r.with(classColdRun, artifactFormats[0]))
	}
	pass := ws.serve(cold, tr, parent)
	if err := firstError("populating", pass); err != nil {
		return nil, err
	}
	var rest []svcRequest
	for _, r := range ws.pool.Sweeps {
		for _, f := range sweepFormats[1:] {
			rest = append(rest, r.with("populate", f))
		}
	}
	for _, r := range ws.pool.Runs {
		for _, f := range artifactFormats[1:] {
			rest = append(rest, r.with("populate", f))
		}
	}
	return pass, firstError("populating", ws.serve(rest, nil, nil))
}

// restart closes server and store, reopens the store and starts a new
// server. The returned duration is store.Open start → /readyz 200.
func (ws *warmSession) restart() (time.Duration, error) {
	if err := ws.stop(); err != nil {
		return 0, err
	}
	d, took, err := startDaemon(ws.dir, ws.clients, ws.cacheSize)
	ws.d = d
	return took, err
}

// runServeWarm serves known content only. Set-up computes the pool on a
// daemon with a 64-entry point LRU and restarts it, so the first
// repetition, like every later one, starts from a freshly recovered
// daemon whose campaign map holds one tenant-a campaign per content.
func runServeWarm(rc *runCtx) (err error) {
	ws, err := startWarmSession(rc.scratch+"/warm-store", rc.clients, warmCacheSize, newWarmPool())
	if err != nil {
		return err
	}
	defer func() {
		if serr := ws.stop(); err == nil {
			err = serr
		}
	}()
	if _, err := ws.populate(nil, nil); err != nil {
		return err
	}
	if _, err := ws.restart(); err != nil {
		return err
	}
	recovered := ws.pool.all(classRecovered)
	if err := firstError("recovering", ws.serve(recovered, nil, nil)); err != nil {
		return err
	}
	script := warmScript(ws.pool, rc.seed)
	return rc.timedReps(func(s *repSample) error {
		root := rc.cur.Start("repetition", nil, 0)
		defer root.End()
		s.record(ws.serve(script, rc.cur, root))
		sp := rc.cur.Start("restart", root, 0)
		took, err := ws.restart()
		sp.End()
		if err != nil {
			return err
		}
		s.recover = took
		s.record(ws.serve(recovered, rc.cur, root))
		return nil
	})
}

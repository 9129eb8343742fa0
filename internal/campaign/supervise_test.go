package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"asyncio/internal/vclock"
)

const panicSpec = `{"kind":"run","tenant":"mallory","workload":"vpic","nodes":1,"steps":1,"compute_seconds":3}`

// TestPanicPoisonTyped500 pins the poison verdict on the wire: a spec
// whose compute panics every time fails with a typed 500 of kind
// "poisoned", resubmitting gets the byte-identical answer, and another
// tenant's campaign on the same pool is served meanwhile. The strike
// and quarantine logic behind it is sched.TestPanicPoisonQuarantine.
func TestPanicPoisonTyped500(t *testing.T) {
	_, ts := startServiceWith(t, Config{Workers: 2, PoisonStrikes: 3, RedispatchBackoff: time.Millisecond},
		func(spec *Spec, i int) ([]byte, error) {
			if spec.Tenant == "mallory" {
				panic(fmt.Sprintf("injected fault for %s", spec.PointKey(i)))
			}
			return ComputePoint(spec, i)
		}, time.Now)

	goodCh := make(chan []byte, 1)
	go func() {
		code, _, body := post(t, ts, "/v1/campaigns?wait=summary",
			`{"kind":"run","tenant":"alice","workload":"vpic","nodes":1,"steps":1,"compute_seconds":2}`)
		if code != http.StatusOK {
			t.Errorf("healthy tenant: status %d: %s", code, body)
		}
		goodCh <- body
	}()

	code, _, body := post(t, ts, "/v1/campaigns?wait=summary", panicSpec)
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking campaign: status %d, want 500: %s", code, body)
	}
	var fail map[string]string
	if err := json.Unmarshal(body, &fail); err != nil {
		t.Fatalf("500 body is not typed JSON: %s", body)
	}
	if fail["kind"] != "poisoned" || !strings.Contains(fail["error"], "poisoned after 3 panics") {
		t.Fatalf("failure %q, want kind poisoned after 3 panics", body)
	}
	if body := <-goodCh; len(body) == 0 {
		t.Error("healthy tenant's summary came back empty")
	}
	code, _, again := post(t, ts, "/v1/campaigns?wait=summary", panicSpec)
	if code != http.StatusInternalServerError || !bytes.Equal(again, body) {
		t.Errorf("resubmit: status %d body %s, want identical stable 500", code, again)
	}
}

// TestProcPanicIsSupervised: a panic inside a simulated process travels
// out of Clock.Wait on the worker goroutine that called it, where the
// scheduler's supervisor turns it into the same typed verdict — it does
// not die on a goroutine of the clock's own and take the daemon along.
func TestProcPanicIsSupervised(t *testing.T) {
	_, ts := startServiceWith(t, Config{Workers: 1, PoisonStrikes: 2, RedispatchBackoff: time.Millisecond},
		func(spec *Spec, i int) ([]byte, error) {
			if spec.Tenant != "mallory" {
				return ComputePoint(spec, i)
			}
			clk := vclock.New()
			clk.Go("bystander", func(p *vclock.Proc) { p.Sleep(time.Hour) })
			clk.Go("rank0", func(p *vclock.Proc) {
				p.Sleep(time.Second)
				panic("rank0 went wrong at " + p.Now().String())
			})
			return nil, clk.Wait()
		}, time.Now)

	code, _, body := post(t, ts, "/v1/campaigns?wait=summary", panicSpec)
	if code != http.StatusInternalServerError || !strings.Contains(string(body), `panicked: rank0 went wrong at 1s","kind":"poisoned"`) {
		t.Fatalf("panicking proc: status %d, want a typed 500 carrying the proc's panic value: %s", code, body)
	}
	code, _, body = post(t, ts, "/v1/campaigns?wait=summary",
		`{"kind":"run","tenant":"alice","workload":"vpic","nodes":1,"steps":1,"compute_seconds":2}`)
	if code != http.StatusOK || len(body) == 0 {
		t.Fatalf("the daemon did not serve the next tenant: status %d: %s", code, body)
	}
}

// TestDeadlineExpired pins the deadline verdict on the wire, on a fake
// clock: work admitted under a deadline that passes before any worker
// reaches it fails with a typed 500 of kind "deadline".
func TestDeadlineExpired(t *testing.T) {
	var clock atomic.Int64 // nanoseconds past base
	base := time.UnixMicro(1_000_000)
	svc, ts := startServiceWith(t, Config{Workers: 1, PointDeadline: time.Second}, ComputePoint,
		func() time.Time { return base.Add(time.Duration(clock.Load())) })

	svc.sched.Pause() // hold the queue so the deadline can pass deterministically
	code, _, body := post(t, ts, "/v1/campaigns", panicSpec)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d: %s", code, body)
	}
	var st statusJSON
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	clock.Store(int64(2 * time.Second)) // now > admission deadline
	svc.sched.Resume()

	code, res := get(t, ts, "/v1/campaigns/"+st.ID+"/result")
	if code != http.StatusInternalServerError {
		t.Fatalf("result: status %d, want 500: %s", code, res)
	}
	var fail map[string]string
	if err := json.Unmarshal(res, &fail); err != nil || fail["kind"] != "deadline" {
		t.Fatalf("failure kind = %q, want deadline: %s", fail["kind"], res)
	}
	if c := counter(t, svc, "campaign.deadline.expired"); c != 1 {
		t.Errorf("campaign.deadline.expired = %d, want 1", c)
	}
}

// TestEventsTerminalRecord pins the NDJSON terminal frame on the happy
// path: the stream's last record is final with state "complete".
func TestEventsTerminalRecord(t *testing.T) {
	_, ts := startService(t, Config{Workers: 2})
	code, _, body := post(t, ts, "/v1/campaigns", `{"kind":"run","tenant":"alice","workload":"vpic","nodes":1,"steps":1,"compute_seconds":1}`)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("POST: status %d", code)
	}
	var st statusJSON
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	code, evBody := get(t, ts, "/v1/campaigns/"+st.ID+"/events")
	if code != http.StatusOK {
		t.Fatalf("events: status %d", code)
	}
	lines := strings.Split(strings.TrimSpace(string(evBody)), "\n")
	var last Event
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last event line: %v (%s)", err, lines[len(lines)-1])
	}
	if !last.Final || last.State != "complete" {
		t.Fatalf("terminal record = %+v, want final complete", last)
	}
	for _, l := range lines[:len(lines)-1] {
		var ev Event
		if err := json.Unmarshal([]byte(l), &ev); err != nil || ev.Final {
			t.Fatalf("non-terminal line marked final: %s", l)
		}
	}
}

// TestEventsAbortedTerminalRecord pins the drain-mid-campaign contract:
// when the daemon shuts down with points still queued, the stream ends
// with a typed "aborted" terminal record — distinguishable from both a
// completed campaign and a cut-off connection — and the result endpoint
// answers with a typed 503.
func TestEventsAbortedTerminalRecord(t *testing.T) {
	svc, ts := startService(t, Config{Workers: 1})
	svc.sched.Pause() // the point never dispatches
	code, _, body := post(t, ts, "/v1/campaigns", panicSpec)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	var st statusJSON
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	evCh := make(chan []byte, 1)
	go func() {
		_, evBody := get(t, ts, "/v1/campaigns/"+st.ID+"/events")
		evCh <- evBody
	}()
	// Let the stream attach, then kill the server out from under it.
	time.Sleep(20 * time.Millisecond)
	svc.Close()

	evBody := <-evCh
	lines := strings.Split(strings.TrimSpace(string(evBody)), "\n")
	var last Event
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last event line: %v (%q)", err, string(evBody))
	}
	if !last.Final || last.State != "aborted" || last.Done != 0 || last.Total != 1 {
		t.Fatalf("terminal record = %+v, want final aborted 0/1", last)
	}

	code, res := get(t, ts, "/v1/campaigns/"+st.ID+"/result")
	if code != http.StatusServiceUnavailable || !bytes.Contains(res, []byte(`"kind":"aborted"`)) {
		t.Fatalf("result after abort: status %d body %s, want typed 503", code, res)
	}
	code, stBody := get(t, ts, "/v1/campaigns/"+st.ID)
	if code != http.StatusOK || !bytes.Contains(stBody, []byte(`"state":"aborted"`)) {
		t.Fatalf("status after abort: %d %s, want state aborted", code, stBody)
	}
}

// TestEventsDisconnectWakeup pins the event stream's exit on client
// disconnect: on a campaign that will never produce another event (the
// scheduler is paused), 200 streams are opened and cancelled, and every
// handler must return and leave no goroutine behind. (The lost wake-up
// this guards — a broadcast landing between a stream's context check
// and its cond.Wait — has a window of nanoseconds; the test pins the
// property, the lock around the broadcast in Campaign.stream is the
// fix.)
func TestEventsDisconnectWakeup(t *testing.T) {
	svc, ts := startService(t, Config{Workers: 1})
	svc.sched.Pause()
	code, _, body := post(t, ts, "/v1/campaigns", panicSpec)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	var st statusJSON
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	ts.Client().CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
	time.Sleep(10 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	const streams = 200
	h := svc.Handler()
	returned := make(chan struct{}, streams)
	for i := 0; i < streams; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req := httptest.NewRequest("GET", "/v1/campaigns/"+st.ID+"/events", nil).WithContext(ctx)
		go func() {
			h.ServeHTTP(httptest.NewRecorder(), req)
			returned <- struct{}{}
		}()
		// Staggered against the handler's start-up, so some cancels land
		// before the stream's first wait, some in it.
		if i%2 == 0 {
			runtime.Gosched()
		}
		cancel()
	}
	deadline := time.After(10 * time.Second)
	for i := 0; i < streams; i++ {
		select {
		case <-returned:
		case <-deadline:
			t.Fatalf("%d of %d cancelled event streams never returned", streams-i, streams)
		}
	}
	for wait := time.Millisecond; runtime.NumGoroutine() > baseline; wait *= 2 {
		if wait > 2*time.Second {
			t.Fatalf("%d goroutines, %d before the streams were opened", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(wait)
	}
}

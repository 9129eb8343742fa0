package campaign

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestServiceSoak hammers the HTTP surface with 64 concurrent clients
// across mixed tenants (run with -race in CI) and checks what crosses
// the wire: every POST is answered 202, 200 or 429, a 429 always
// carries an integer Retry-After, and /metricz's admitted and rejected
// counters are exactly what the clients saw — backpressure is never
// dropped silently. The scheduling audit of the same traffic (fairness,
// per-tenant credit, gauges back to zero) is sched.TestServiceSoak.
func TestServiceSoak(t *testing.T) {
	const (
		clients    = 64
		perClient  = 4
		tenantMod  = 4
		queueDepth = 48 // small enough that bursts overflow into 429s
	)
	svc, ts := startService(t, Config{Workers: 4, QueueDepth: queueDepth})

	// A small pool of distinct cheap specs: duplicates collide in the
	// cache and in-flight table, distinct ones keep the workers busy.
	spec := func(tenant string, variant int) string {
		return fmt.Sprintf(`{"kind":"run","tenant":%q,"workload":"vpic","nodes":1,"steps":1,"mode":"sync","compute_seconds":%d}`,
			tenant, 1+variant%8)
	}

	var posts, accepted, throttled atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", i%tenantMod)
			for j := 0; j < perClient; j++ {
				resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json",
					strings.NewReader(spec(tenant, i+j)))
				if err != nil {
					t.Errorf("client %d POST %d: %v", i, j, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				posts.Add(1)
				switch resp.StatusCode {
				case http.StatusAccepted, http.StatusOK:
					accepted.Add(1)
				case http.StatusTooManyRequests:
					if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
						t.Errorf("client %d: 429 with Retry-After %q, want a positive integer",
							i, resp.Header.Get("Retry-After"))
					}
					throttled.Add(1)
				default:
					t.Errorf("client %d POST %d: unexpected status %d", i, j, resp.StatusCode)
				}
			}
		}(i)
	}
	wg.Wait()
	if err := svc.Drain(t.Context()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	admitted := counter(t, svc, "campaign.admitted")
	rejected := counter(t, svc, "campaign.rejected")
	if admitted != accepted.Load() {
		t.Errorf("campaign.admitted = %d, clients saw %d acceptances", admitted, accepted.Load())
	}
	if rejected != throttled.Load() {
		t.Errorf("campaign.rejected = %d, clients saw %d throttles", rejected, throttled.Load())
	}
	if admitted+rejected != posts.Load() {
		t.Errorf("admitted %d + rejected %d != POSTs %d", admitted, rejected, posts.Load())
	}
}

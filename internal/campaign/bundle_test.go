package campaign

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"asyncio/internal/campaign/store"
	"asyncio/internal/experiments"
)

// The three run shapes the bundle tests compute: a clean synchronous
// run, a clean asynchronous one, and an injected crash (partial
// artifacts, classification lines in the summary).
var bundleSpecs = []struct{ name, spec string }{
	{"sync", `{"kind":"run","workload":"vpic","nodes":1,"steps":2,"mode":"sync","compute_seconds":1}`},
	{"async", `{"kind":"run","workload":"vpic","nodes":1,"steps":2,"mode":"async","compute_seconds":1}`},
	{"crash", `{"kind":"run","workload":"vpic","nodes":1,"steps":6,"compute_seconds":1,"mode":"async",` +
		`"faults":"seed=7;crashrank=3@4s","checkpoint_every":2,"journal":true}`},
}

var refBundles struct {
	sync.Once
	specs    []*Spec
	payloads [][]byte
	err      error
}

// refBundle computes bundleSpecs[i] once per process.
func refBundle(t testing.TB, i int) (*Spec, []byte) {
	t.Helper()
	r := &refBundles
	r.Do(func() {
		for _, c := range bundleSpecs {
			spec, err := DecodeSpec([]byte(c.spec))
			if err != nil {
				r.err = err
				return
			}
			p, err := ComputePoint(spec, 0)
			if err != nil {
				r.err = err
				return
			}
			r.specs, r.payloads = append(r.specs, spec), append(r.payloads, p)
		}
	})
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.specs[i], r.payloads[i]
}

// jsonBundle is the encoding the service used before bundle.go existed,
// and the reference encodeBundle must match byte for byte: json.Marshal
// of the artifact map plus a newline.
func jsonBundle(t testing.TB, m map[string][]byte) []byte {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// checkBundleCodec asserts, for arbitrary bytes, what the codec promises
// against encoding/json: it accepts only what json.Unmarshal accepts and
// reads the same artifacts out of it, one at a time or all at once, and
// what it accepts is exactly what it (and json.Marshal) would write.
func checkBundleCodec(t testing.TB, b []byte) {
	t.Helper()
	verr := validateBundle(b)
	got, derr := DecodeBundle(b)
	if (verr == nil) != (derr == nil) {
		t.Fatalf("validateBundle says %v, DecodeBundle says %v", verr, derr)
	}
	if verr != nil {
		if err := ValidatePointPayload(b); len(b) > 0 && b[0] == '{' && err == nil {
			t.Fatal("ValidatePointPayload accepts a payload validateBundle rejects")
		}
		return
	}
	var want map[string][]byte
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("validateBundle accepts what json.Unmarshal rejects: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeBundle = %q, json.Unmarshal = %q", got, want)
	}
	for name, a := range want {
		one, ok, err := bundleArtifact(b, name)
		if err != nil || !ok || !bytes.Equal(one, a) {
			t.Fatalf("bundleArtifact(%q) = %q, %v, %v; want %q", name, one, ok, err, a)
		}
		// Names that sort just before and just after a present one.
		for _, absent := range []string{name[:len(name)-1], name + "0"} {
			if _, present := want[absent]; present {
				continue
			}
			if one, ok, err := bundleArtifact(b, absent); one != nil || ok || err != nil {
				t.Fatalf("bundleArtifact(%q) = %q, %v, %v; want absent", absent, one, ok, err)
			}
		}
	}
	if enc := encodeBundle(got); !bytes.Equal(enc, jsonBundle(t, got)) {
		t.Fatalf("encodeBundle = %q, json.Marshal = %q", enc, jsonBundle(t, got))
	} else if !bytes.Equal(enc, b) {
		t.Fatalf("accepted payload %q is not canonical: re-encodes as %q", b, enc)
	}
}

// cutDown shortens every artifact of a bundle to at most n bytes, so the
// fuzzer starts from the real shape without a megabyte to mutate.
func cutDown(t testing.TB, payload []byte, n int) []byte {
	t.Helper()
	m, err := DecodeBundle(payload)
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range m {
		m[name] = a[:min(n, len(a))]
	}
	return encodeBundle(m)
}

func FuzzBundle(f *testing.F) {
	_, clean := refBundle(f, 1)
	_, aborted := refBundle(f, 2)
	f.Add(cutDown(f, clean, 50)) // every padding length: 50, 49 and 48-byte artifacts
	f.Add(cutDown(f, clean, 49))
	f.Add(cutDown(f, aborted, 48))
	f.Add(encodeBundle(map[string][]byte{ArtifactSummary: []byte("s\n"), ArtifactTrace: {}, ArtifactMetrics: nil}))
	f.Add([]byte("{}\n"))
	f.Add([]byte(`{"a":"QQ==","a":"QQ=="}` + "\n")) // valid JSON, repeated name
	f.Add([]byte(`{"b":"","a":""}` + "\n"))         // valid JSON, out of order
	f.Add([]byte(`{"a":"QR=="}` + "\n"))            // base64 json accepts, not canonical
	f.Add([]byte(`{"a":"QU\nJD"}` + "\n"))          // line break encoding/base64 skips
	f.Add([]byte("ranks=6\npeak=1\nest=1\n"))
	f.Fuzz(func(t *testing.T, b []byte) { checkBundleCodec(t, b) })
}

// TestBundleRejects names the ways a payload can be valid JSON for a
// map[string][]byte — what the service accepted before — and still not a
// bundle, and the ways it can be damaged; none may validate or decode.
func TestBundleRejects(t *testing.T) {
	for _, good := range []string{"{}\n", `{"a":"QUI="}` + "\n", `{"a":"","b.B_0-":"QQ=="}` + "\n"} {
		if err := validateBundle([]byte(good)); err != nil {
			t.Errorf("validateBundle(%q) = %v", good, err)
		}
		checkBundleCodec(t, []byte(good))
	}
	for _, bad := range []string{
		"", "{", "{}", "{}\n\n", " {}\n", "{ }\n", "[]\n", "null\n",
		`{"a":""}`,                // no newline
		`{"a":"",}` + "\n",        // trailing comma
		`{"a":"" ,"b":""}` + "\n", // whitespace
		`{"a": ""}` + "\n",
		`{"a":null}` + "\n",
		`{"a":"QQ==","a":"QQ=="}` + "\n", // repeated name
		`{"b":"","a":""}` + "\n",         // out of order
		`{"":""}` + "\n",                 // empty name
		`{"a\u0062":""}` + "\n",          // escape in a name
		`{"a<":""}` + "\n",               // a name json.Marshal would escape
		`{"` + strings.Repeat("a", maxQuoted+1) + `":""}` + "\n",
		`{"v":"QQ"}` + "\n",     // unpadded
		`{"v":"QR=="}` + "\n",   // non-zero trailing bits
		`{"v":"QUJ="}` + "\n",   // likewise, one padding byte
		`{"v":"QQ=A"}` + "\n",   // padding inside
		`{"v":"===="}` + "\n",   // padding only
		`{"v":"Q!JD"}` + "\n",   // not a digit
		`{"v":"QU\nJD"}` + "\n", // escaped line break: json unescapes it, base64 skips it
		"{\"v\":\"QU\nJD\"}\n",  // raw line break: base64 alone would skip it
		`{"v":"QUJD}` + "\n",    // unterminated value
		`{"v":"QUJD"` + "\n",    // no brace
	} {
		if err := validateBundle([]byte(bad)); err == nil {
			t.Errorf("validateBundle(%q) accepts", bad)
		}
		if _, _, err := bundleArtifact([]byte(bad), "v"); err == nil && strings.Contains(bad, `"v"`) {
			t.Errorf("bundleArtifact(%q) serves the damaged value", bad)
		}
		checkBundleCodec(t, []byte(bad))
	}
	// A damaged megabyte is quoted in no error: messages stay short.
	big := bytes.Repeat([]byte("x"), 1<<20)
	for _, b := range [][]byte{big, append([]byte(`{"`), big...), append([]byte(`{"a":"`), big...)} {
		b = append(b, "}\n"...)
		if err := ValidatePointPayload(b); err == nil || len(err.Error()) > 4*maxQuoted {
			t.Errorf("ValidatePointPayload of %d damaged bytes: %d-byte error", len(b), len(fmt.Sprint(err)))
		}
	}
}

// TestRenderRunFormats serves every run format of a real sync, async and
// aborted bundle and compares it with the whole-bundle decoder (and so,
// through checkBundleCodec, with encoding/json): the one-artifact read
// path returns exactly the bytes the five-artifact path does.
func TestRenderRunFormats(t *testing.T) {
	formats := map[string]string{
		"": ArtifactSummary, "summary": ArtifactSummary, "trace": ArtifactTrace,
		"metrics": ArtifactMetrics, "perfetto": ArtifactPerfetto, "critpath": ArtifactCritPath,
	}
	for i, c := range bundleSpecs {
		t.Run(c.name, func(t *testing.T) {
			spec, payload := refBundle(t, i)
			checkBundleCodec(t, payload)
			whole, err := DecodeBundle(payload)
			if err != nil {
				t.Fatal(err)
			}
			if len(whole) != 5 {
				t.Fatalf("bundle has %d artifacts, want 5", len(whole))
			}
			for format, name := range formats {
				body, ctype, err := renderResult(spec, [][]byte{payload}, format)
				if err != nil || ctype == "" {
					t.Fatalf("format %q: %q, %v", format, ctype, err)
				}
				if len(body) == 0 || !bytes.Equal(body, whole[name]) {
					t.Errorf("format %q: served %d bytes, the bundle's %s has %d", format, len(body), name, len(whole[name]))
				}
			}
			body, _, err := renderResult(spec, [][]byte{payload}, "bundle")
			if err != nil || &body[0] != &payload[0] || len(body) != len(payload) {
				t.Errorf("format bundle is not the payload itself (%v)", err)
			}
			if aborted := strings.Contains(string(whole[ArtifactSummary]), "\nrun aborted: "); aborted != (c.name == "crash") {
				t.Errorf("summary reports an aborted run = %v:\n%s", aborted, whole[ArtifactSummary])
			}

			// An artifact the bundle does not carry is an error, not an
			// empty 200.
			delete(whole, ArtifactCritPath)
			if _, _, err := renderResult(spec, [][]byte{encodeBundle(whole)}, "critpath"); err == nil {
				t.Error("rendering an absent artifact succeeded")
			}
		})
	}
}

// TestStoreFallbackValidatesBundle plants frame-valid records in a real
// store — the checksum holds, so only ValidatePointPayload stands between
// the payload and a client — and restarts the service over it. The
// record in the encoding the service wrote before bundle.go existed is a
// store hit served without computing; every damaged one is a miss that
// recomputes and serves the cold bytes, wherever in the bundle the damage
// sits relative to the artifact asked for.
func TestStoreFallbackValidatesBundle(t *testing.T) {
	spec, cold := refBundle(t, 0)
	whole, err := DecodeBundle(cold)
	if err != nil {
		t.Fatal(err)
	}
	// breakValue puts a byte no base64 value holds inside name's value.
	breakValue := func(name string) []byte {
		p := bytes.Clone(cold)
		key := `"` + name + `":"`
		p[bytes.Index(p, []byte(key))+len(key)+5] = '*'
		return p
	}
	// The same members with the names descending: JSON the service used
	// to accept, and not what it ever wrote.
	reversed := []byte("{")
	for _, name := range []string{ArtifactTrace, ArtifactSummary, ArtifactPerfetto, ArtifactMetrics, ArtifactCritPath} {
		reversed = fmt.Appendf(reversed, `"%s":"%s",`, name, base64.StdEncoding.EncodeToString(whole[name]))
	}
	reversed = append(reversed[:len(reversed)-1], "}\n"...)
	if m := map[string][]byte(nil); json.Unmarshal(reversed, &m) != nil || !reflect.DeepEqual(m, whole) {
		t.Fatal("the out-of-order record is not JSON for the same artifacts")
	}

	for _, c := range []struct {
		name    string
		record  []byte
		recover bool
	}{
		{"written before bundle.go", jsonBundle(t, whole), true},
		{"damage inside the served artifact", breakValue(ArtifactSummary), false},
		{"damage inside another artifact", breakValue(ArtifactTrace), false},
		{"closing brace and newline cut off", cold[:len(cold)-2], false},
		{"names out of order", reversed, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			seedStore(t, dir, spec, [][]byte{c.record}, storeOpts(dir))
			st, rep, err := store.Open(storeOpts(dir))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			if !rep.Clean() || rep.Points != 1 {
				t.Fatalf("the planted record did not pass the scan: %s", rep.Summary())
			}
			svc, ts := startService(t, Config{Workers: 1, Store: st, StoreRecovery: rep})
			for format, name := range map[string]string{"summary": ArtifactSummary, "bundle": ""} {
				want := cold
				if name != "" {
					want = whole[name]
				}
				code, _, body := post(t, ts, "/v1/campaigns?wait="+format, bundleSpecs[0].spec)
				if code != http.StatusOK || !bytes.Equal(body, want) {
					t.Errorf("format %s: status %d, %d bytes served; the cold run has %d", format, code, len(body), len(want))
				}
			}
			hits, computed := counter(t, svc, "campaign.store.hits"), counter(t, svc, "campaign.cache.misses")
			if c.recover && (hits != 1 || computed != 0) {
				t.Errorf("intact record: %d store hits, %d points computed; want 1 and 0", hits, computed)
			}
			if !c.recover && (hits != 0 || computed != 1) {
				t.Errorf("damaged record: %d store hits, %d points computed; want 0 and 1", hits, computed)
			}
		})
	}
}

// TestAllocBudgetArtifactRead: serving one artifact allocates for that
// artifact and nothing that grows with the bundle around it. Before
// bundle.go, either read decoded all five (≈3× the bundle in bytes).
func TestAllocBudgetArtifactRead(t *testing.T) {
	spec, real := refBundle(t, 1)
	m, err := DecodeBundle(real)
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range m {
		if name != ArtifactSummary {
			m[name] = bytes.Repeat(a, 1+(256<<10)/len(a))
		}
	}
	payloads := [][]byte{encodeBundle(m)}
	if len(payloads[0]) < 1<<20 {
		t.Fatalf("test bundle is only %d bytes", len(payloads[0]))
	}
	bytesPerRead := func(format string) float64 {
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, _, err := renderResult(spec, payloads, format); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	if got := bytesPerRead("summary"); got > 4<<10 {
		t.Errorf("summary of a %d-byte bundle allocates %.0f bytes, budget 4096", len(payloads[0]), got)
	}
	if got, budget := bytesPerRead("perfetto"), 1.1*float64(len(m[ArtifactPerfetto])); got > budget {
		t.Errorf("perfetto (%d bytes) out of a %d-byte bundle allocates %.0f bytes, budget %.0f",
			len(m[ArtifactPerfetto]), len(payloads[0]), got, budget)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := ValidatePointPayload(payloads[0]); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("validating a bundle allocates %.0f objects, want 0", allocs)
	}
}

// TestSweepPointErrorsBounded: a payload that cannot be a sweep point is
// rejected by its length, and a malformed line is quoted only in part.
func TestSweepPointErrorsBounded(t *testing.T) {
	longest := experiments.SweepPoint{Ranks: math.MinInt64, Peak: -math.MaxFloat64, Est: -math.SmallestNonzeroFloat64}
	if _, err := decodeSweepPoint(encodeSweepPoint(longest)); err != nil {
		t.Fatalf("the longest sweep point does not decode: %v", err)
	}
	long := strings.Repeat("x", maxSweepPointBytes)
	for _, bad := range []string{long, long + "y", "ranks=1\n" + long[:200] + "\n"} {
		_, err := decodeSweepPoint([]byte(bad))
		if err == nil || len(err.Error()) > 2*maxQuoted+40 {
			t.Errorf("decodeSweepPoint of %d bad bytes: %v", len(bad), err)
		}
	}
}

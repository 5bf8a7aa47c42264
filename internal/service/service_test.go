package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"adelie/internal/workload"
)

// newTestService starts a service (custom registry optional) behind an
// httptest server and tears both down with the test.
func newTestService(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

// post sends a /v1 POST and returns status + body.
func post(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out.Bytes()
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out.Bytes()
}

// gateRegistry builds a registry with a channel-gated experiment (each
// run announces itself on started, then blocks until release closes) and an
// instant one — the deterministic fixtures for queue-full, TTL and
// drain tests.
func gateRegistry(started chan struct{}, release chan struct{}) *workload.Registry {
	tab := func(title string) *workload.Table {
		t := &workload.Table{Title: title, Columns: []workload.Column{workload.Col("v", "%d", "%s")}}
		t.AddRow(1)
		return t
	}
	return workload.NewRegistry(
		&workload.Experiment{
			Name: "gated", Doc: "blocks until released",
			Run: func(workload.Params) (*workload.Table, error) {
				started <- struct{}{}
				<-release
				return tab("gated"), nil
			},
		},
		&workload.Experiment{
			Name: "instant", Doc: "returns immediately",
			Run: func(workload.Params) (*workload.Table, error) {
				return tab("instant"), nil
			},
		},
	)
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestRunRoundTrip(t *testing.T) {
	_, ts := newTestService(t, Config{PoolSize: 2})
	status, body := post(t, ts.URL+"/v1/run", RunRequest{Experiment: "fig1"})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var rep RunReply
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Name != "fig1" || rep.Table == nil || len(rep.Table.Rows) == 0 {
		t.Fatalf("bad reply: %+v", rep)
	}
}

// TestServedTableByteIdenticalToBenchtool is the HTTP half of the
// determinism contract: the Table served by /v1/run must marshal
// byte-identically to the Table `benchtool run` produces for the same
// experiment and params (both sides resolve overrides through
// workload.ResolveOverrides — one code path, no drift).
func TestServedTableByteIdenticalToBenchtool(t *testing.T) {
	_, ts := newTestService(t, Config{PoolSize: 2})
	status, body := post(t, ts.URL+"/v1/run", RunRequest{
		Experiment: "fig9", Quick: true, Params: map[string]any{"ops": "100"},
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var rep struct {
		Table json.RawMessage `json:"table"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	var servedTab workload.Table
	if err := json.Unmarshal(rep.Table, &servedTab); err != nil {
		t.Fatal(err)
	}
	served, err := json.Marshal(&servedTab)
	if err != nil {
		t.Fatal(err)
	}

	exp, ok := workload.Experiments.Lookup("fig9")
	if !ok {
		t.Fatal("fig9 not registered")
	}
	p, _, _, err := exp.ResolveOverrides(true, []string{"ops=100"}, false)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := exp.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want) {
		t.Fatalf("served table diverges from benchtool's:\nserved: %s\nwant:   %s", served, want)
	}
}

func TestSweepRoundTrip(t *testing.T) {
	_, ts := newTestService(t, Config{PoolSize: 2})
	status, body := post(t, ts.URL+"/v1/sweep", RunRequest{
		Experiment: "fig9", Quick: true, Params: map[string]any{"ops": "40..80:40"},
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var rep SweepReply
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Param != "ops" || len(rep.Points) != 2 {
		t.Fatalf("want 2 ops points, got %+v", rep)
	}
	exp, _ := workload.Experiments.Lookup("fig9")
	for i, wantOps := range []int64{40, 80} {
		if got := rep.Points[i].Params["ops"]; got != wantOps {
			t.Fatalf("point %d: ops=%d, want %d", i, got, wantOps)
		}
		p, _, _, err := exp.ResolveOverrides(true, []string{fmt.Sprintf("ops=%d", wantOps)}, true)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := exp.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(tab)
		got, _ := json.Marshal(rep.Points[i].Table)
		if !bytes.Equal(got, want) {
			t.Fatalf("sweep point ops=%d diverges from direct run", wantOps)
		}
	}
}

func TestExperimentsListing(t *testing.T) {
	_, ts := newTestService(t, Config{})
	status, body := get(t, ts.URL+"/v1/experiments")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var rep struct {
		Experiments []struct {
			Name   string `json:"name"`
			Params []struct {
				Name    string `json:"name"`
				Default int64  `json:"default"`
			} `json:"params"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range rep.Experiments {
		names[e.Name] = true
	}
	for _, want := range workload.Experiments.Names() {
		if !names[want] {
			t.Fatalf("experiment %q missing from listing", want)
		}
	}
}

func TestUnknownExperiment404(t *testing.T) {
	_, ts := newTestService(t, Config{})
	status, body := post(t, ts.URL+"/v1/run", RunRequest{Experiment: "fgi5b"})
	if status != http.StatusNotFound {
		t.Fatalf("status %d, want 404: %s", status, body)
	}
	var rep ErrorReply
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Suggestion != "fig5b" || !strings.Contains(rep.Error, `did you mean "fig5b"`) {
		t.Fatalf("want fig5b suggestion, got %+v", rep)
	}
	if len(rep.Registered) == 0 {
		t.Fatal("want registered experiment list in 404 body")
	}
}

func TestBadParams400(t *testing.T) {
	_, ts := newTestService(t, Config{})
	for _, tc := range []struct {
		name string
		req  RunRequest
		path string
		want string
	}{
		{"unknown param", RunRequest{Experiment: "fig1", Params: map[string]any{"bogus": "1"}}, "/v1/run", "no parameter"},
		{"range on run", RunRequest{Experiment: "fig9", Params: map[string]any{"ops": "10..20"}}, "/v1/run", "is a range"},
		{"non-integer", RunRequest{Experiment: "fig9", Params: map[string]any{"ops": "many"}}, "/v1/run", "not an integer"},
		{"fractional", RunRequest{Experiment: "fig9", Params: map[string]any{"ops": 1.5}}, "/v1/run", "not an integer"},
		{"sweep without range", RunRequest{Experiment: "fig9", Params: map[string]any{"ops": "100"}}, "/v1/sweep", "needs exactly one range"},
		{"ops below 1", RunRequest{Experiment: "server", Params: map[string]any{"ops": -5}}, "/v1/run", `\"ops\": -5 is out of range`},
		{"queues above max", RunRequest{Experiment: "server", Params: map[string]any{"queues": 100}}, "/v1/run", `\"queues\": 100 is out of range`},
		{"workers above vCPUs", RunRequest{Experiment: "server", Params: map[string]any{"workers": 21}}, "/v1/run", `\"workers\": 21 is out of range`},
		{"sweep point out of range", RunRequest{Experiment: "fig9", Params: map[string]any{"ops": "0..50:25"}}, "/v1/sweep", `\"ops\": 0 is out of range`},
	} {
		status, body := post(t, ts.URL+tc.path, tc.req)
		if status != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", tc.name, status, body)
		}
		if !strings.Contains(string(body), tc.want) {
			t.Fatalf("%s: body %s does not mention %q", tc.name, body, tc.want)
		}
	}
}

func TestQueueFull503(t *testing.T) {
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	svc, ts := newTestService(t, Config{
		Registry: gateRegistry(started, release),
		PoolSize: 1, QueueCap: 1, LeaseTTL: time.Minute,
	})

	results := make(chan int, 2)
	fire := func() {
		go func() {
			status, _ := post(t, ts.URL+"/v1/run", RunRequest{Experiment: "gated"})
			results <- status
		}()
	}
	fire() // takes the only slot
	<-started
	fire() // sits in the queue
	waitFor(t, "queued request", func() bool { return svc.StatsNow().QueueDepth == 1 })

	// Queue at capacity: the third request sheds immediately.
	status, body := post(t, ts.URL+"/v1/run", RunRequest{Experiment: "gated"})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", status, body)
	}
	if !strings.Contains(string(body), "queue full") {
		t.Fatalf("body %s does not mention queue full", body)
	}

	close(release)
	<-started // the queued request runs once the first releases
	for i := 0; i < 2; i++ {
		if status := <-results; status != http.StatusOK {
			t.Fatalf("gated request %d: status %d", i, status)
		}
	}
	if got := svc.StatsNow().QueueFull; got != 1 {
		t.Fatalf("QueueFull=%d, want 1", got)
	}
}

func TestLeaseTTLRevocation(t *testing.T) {
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	svc, ts := newTestService(t, Config{
		Registry: gateRegistry(started, release),
		PoolSize: 1, QueueCap: 4, LeaseTTL: 25 * time.Millisecond,
	})

	abandoned := make(chan int, 1)
	go func() {
		status, _ := post(t, ts.URL+"/v1/run", RunRequest{Experiment: "gated"})
		abandoned <- status
	}()
	<-started
	// The gated run holds the only slot past its TTL; the janitor must
	// revoke it and return the slot.
	waitFor(t, "TTL revocation", func() bool { return svc.StatsNow().LeasesRevoked >= 1 })

	// Capacity is back while the abandoned machine is still running.
	status, body := post(t, ts.URL+"/v1/run", RunRequest{Experiment: "instant"})
	if status != http.StatusOK {
		t.Fatalf("post-revocation request: status %d: %s", status, body)
	}

	// The abandoned run's late result is discarded with 504.
	close(release)
	if status := <-abandoned; status != http.StatusGatewayTimeout {
		t.Fatalf("revoked lease: status %d, want 504", status)
	}
	st := svc.StatsNow()
	if st.LeasesRevoked != 1 || st.Errors == 0 {
		t.Fatalf("stats after revocation: %+v", st)
	}
}

func TestDrainCompletesAdmittedRequests(t *testing.T) {
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	svc, ts := newTestService(t, Config{
		Registry: gateRegistry(started, release),
		PoolSize: 2, QueueCap: 8, LeaseTTL: time.Minute,
	})

	const n = 6
	results := make(chan int, n)
	for i := 0; i < n; i++ {
		go func() {
			status, _ := post(t, ts.URL+"/v1/run", RunRequest{Experiment: "gated"})
			results <- status
		}()
	}
	// Both slots running, the rest queued.
	waitFor(t, "all admitted", func() bool {
		st := svc.StatsNow()
		return st.InFlight+st.QueueDepth == n
	})

	svc.BeginDrain()
	if status, _ := post(t, ts.URL+"/v1/run", RunRequest{Experiment: "instant"}); status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: status %d, want 503", status)
	}
	if status, _ := get(t, ts.URL+"/v1/healthz"); status != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: status %d, want 503", status)
	}

	close(release)
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- svc.Drain(ctx)
	}()
	for i := 0; i < n; i++ {
		if status := <-results; status != http.StatusOK {
			t.Fatalf("admitted request %d lost to drain: status %d", i, status)
		}
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := svc.StatsNow(); st.OK != n || st.InFlight != 0 || st.QueueDepth != 0 {
		t.Fatalf("post-drain stats: %+v", st)
	}
}

// TestPanickingRunFailsAlone: a panic in a leased /v1/run (traced) or a
// serial /v1/sweep answers 500 naming the experiment and the panic,
// releases its lease and counts as a failed request, while a fig9
// request running beside it is served 200 with the table benchtool
// renders, and the next observability session still opens.
func TestPanickingRunFailsAlone(t *testing.T) {
	fig9, ok := workload.Experiments.Lookup("fig9")
	if !ok {
		t.Fatal("fig9 not registered")
	}
	boom := &workload.Experiment{
		Name: "boom", Doc: "panics mid-run",
		ParamSpecs: []workload.ParamSpec{{Name: "ops", Doc: "unused", Default: 1, Min: 1}},
		Run: func(workload.Params) (*workload.Table, error) {
			panic("kaboom")
		},
	}
	svc, ts := newTestService(t, Config{Registry: workload.NewRegistry(boom, fig9), PoolSize: 2})
	serial := false
	reqs := []struct {
		path string
		req  RunRequest
	}{
		{"/v1/run", RunRequest{Experiment: "boom", Trace: true}},
		{"/v1/sweep", RunRequest{Experiment: "boom", Params: map[string]any{"ops": "1..2"}, Parallel: &serial}},
		{"/v1/run", RunRequest{Experiment: "fig9", Quick: true, Params: map[string]any{"ops": "100"}}},
	}
	type reply struct {
		status int
		body   []byte
	}
	replies := make([]reply, len(reqs))
	var wg sync.WaitGroup
	for i, r := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, err := json.Marshal(r.req)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.Post(ts.URL+r.path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("%s %s: %v", r.path, r.req.Experiment, err)
				return
			}
			defer resp.Body.Close()
			replies[i].status = resp.StatusCode
			replies[i].body, err = io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, r := range replies[:2] {
		if r.status != http.StatusInternalServerError {
			t.Fatalf("%s boom: status %d, want 500: %s", reqs[i].path, r.status, r.body)
		}
		var rep ErrorReply
		if err := json.Unmarshal(r.body, &rep); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(rep.Error, "boom") || !strings.Contains(rep.Error, "panic: kaboom") {
			t.Fatalf("%s boom: error %q does not name the experiment and the panic", reqs[i].path, rep.Error)
		}
	}
	if replies[2].status != http.StatusOK {
		t.Fatalf("fig9 beside the panics: status %d: %s", replies[2].status, replies[2].body)
	}
	var rep struct {
		Table *workload.Table `json:"table"`
	}
	if err := json.Unmarshal(replies[2].body, &rep); err != nil {
		t.Fatal(err)
	}
	p, _, _, err := fig9.ResolveOverrides(true, []string{"ops=100"}, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fig9.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(rep.Table)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJSON) {
		t.Fatalf("fig9 served beside the panics:\n%s\nwant:\n%s", got, wantJSON)
	}
	// The traced panic closed its observability session: the next
	// session opens instead of waiting for it forever.
	opened := make(chan struct{})
	go func() {
		_, end := workload.BeginObs(false, false)
		end()
		close(opened)
	}()
	select {
	case <-opened:
	case <-time.After(10 * time.Second):
		t.Fatal("the traced panic left its observability session open")
	}
	st := svc.StatsNow()
	if st.OK != 1 || st.Errors != 2 || st.InFlight != 0 {
		t.Fatalf("stats after the panics: ok=%d errors=%d in_flight=%d, want 1, 2, 0", st.OK, st.Errors, st.InFlight)
	}
}

func TestHealthzAndStatsz(t *testing.T) {
	svc, ts := newTestService(t, Config{PoolSize: 3, QueueCap: 7})
	if status, body := get(t, ts.URL+"/v1/healthz"); status != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %s", status, body)
	}
	if status, body := post(t, ts.URL+"/v1/run", RunRequest{Experiment: "fig1"}); status != http.StatusOK {
		t.Fatalf("run: %d %s", status, body)
	}
	status, body := get(t, ts.URL+"/v1/statsz")
	if status != http.StatusOK {
		t.Fatalf("statsz: %d", status)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.PoolSize != 3 || st.QueueCap != 7 || st.OK != 1 || st.P50Us <= 0 || st.RPS <= 0 {
		t.Fatalf("statsz: %+v", st)
	}
	want := svc.StatsNow()
	if want.OK != st.OK {
		t.Fatalf("StatsNow OK=%d, statsz OK=%d", want.OK, st.OK)
	}
}

// TestConcurrentClients hammers a pool of 4 with 32 in-flight clients
// (96 machine-booting requests through the fork pool) — the -race leg
// of the service's concurrency contract. Every boot must be served as a
// fork: one template per fig9 variant, zero cold boots.
func TestConcurrentClients(t *testing.T) {
	svc, ts := newTestService(t, Config{PoolSize: 4, QueueCap: 128})
	rep, err := RunLoad(LoadOpts{
		BaseURL:    ts.URL,
		Experiment: "fig9", Quick: true, Params: map[string]string{"ops": "10"},
		Requests: 96, Concurrency: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 96 || rep.Failed != 0 {
		t.Fatalf("load: %+v", rep)
	}
	if rep.RPS <= 0 || rep.P99Us <= 0 || rep.P99Us < rep.P50Us {
		t.Fatalf("degenerate latency stats: %+v", rep)
	}
	st := svc.StatsNow()
	if st.OK != 96 || st.InFlight != 0 || st.QueueDepth != 0 {
		t.Fatalf("post-load stats: %+v", st)
	}
	if st.ColdBoots != 0 {
		t.Fatalf("service cold-booted %d machines; every request must be fork-served", st.ColdBoots)
	}
	if st.ForksServed == 0 || st.ForkTemplates == 0 {
		t.Fatalf("fork pool idle under load: %+v", st)
	}
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"protoacc/internal/serve"
	"protoacc/internal/telemetry"
)

var smoke = flag.Bool("smoke", false, "run TestSmoke: build protoaccd and loadgen and drive live daemons over loopback")

// TestSmoke drives the real protoaccd and loadgen binaries end to end.
// Each row starts daemons on ephemeral loopback ports, runs loadgen
// against them and checks loadgen's output and the daemons' admin
// planes. Every daemon must then drain on SIGTERM and exit 0. It runs
// only with -smoke (make daemon-smoke), so go test ./... stays fast.
func TestSmoke(t *testing.T) {
	if !*smoke {
		t.Skip("builds and runs live daemons; enable with -smoke")
	}
	r := rig{bin: t.TempDir()}
	build := exec.Command("go", "build", "-o", r.bin+string(os.PathSeparator), "protoacc/cmd/protoaccd", "protoacc/cmd/loadgen")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	rows := []struct {
		name    string
		daemons [][]string // each daemon's flags besides its two listeners
		run     func(t *testing.T, r rig, ds []*daemon)
	}{
		{"obs", [][]string{{"-tiles", "2", "-span-sample-n", "16", "-stats-out", "stats.json"}}, smokeObs},
		{"elements", [][]string{{"-tiles", "4", "-elements", "all"}}, smokeElements},
		{"workloads", [][]string{{"-tiles", "2"}}, smokeWorkloads},
		{"cluster", [][]string{nil, nil}, smokeCluster},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ds := make([]*daemon, len(row.daemons))
			for i, args := range row.daemons {
				ds[i] = r.daemon(t, args...)
			}
			row.run(t, r, ds)
		})
	}
}

// smokeObs scrapes the admin plane under TCP load, then checks that the
// stage histograms counted work, that /statusz?write=1 flushes the
// -stats-out file, and that /spans holds sampled spans.
func smokeObs(t *testing.T, r rig, ds []*daemon) {
	d := ds[0]
	sc := d.scrapeWhile(func() {
		r.loadgen(t, "-addr", d.addr, "-duration", "500ms", "-concurrency", "8", "-schema", "mixed", "-check")
	})
	if sc.decoded == 0 || len(sc.invalid) > 0 {
		t.Fatalf("admin scrape under load: %d /statusz decoded, %d fetches failed, invalid expositions: %v",
			sc.decoded, sc.failed, sc.invalid)
	}
	for _, family := range []string{"protoacc_serve_stage_execute_ns_count", "protoacc_serve_stage_queue_wait_ns_count"} {
		if n := d.metric(t, family, ""); n <= 0 {
			t.Errorf("%s summed over tiles = %v, want > 0", family, n)
		}
	}

	stats := filepath.Join(d.dir, "stats.json")
	if _, err := os.Stat(stats); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stats file before the mid-run flush: %v", err)
	}
	var st serve.Statusz
	d.getJSON(t, "/statusz?write=1", &st)
	f, err := os.Open(filepath.Join(d.dir, st.StatsWritten))
	if err != nil {
		t.Fatalf("/statusz?write=1 (stats_written %q): %v", st.StatsWritten, err)
	}
	defer f.Close()
	if _, counters, err := telemetry.ReadStatsJSON(f); err != nil || len(counters) == 0 {
		t.Fatalf("flushed stats file: %d counters, %v", len(counters), err)
	}

	var trace struct {
		TraceEvents []struct {
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	d.getJSON(t, "/spans", &trace)
	spans := 0
	for _, e := range trace.TraceEvents {
		if e.Phase == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Fatalf("/spans holds %d events and no sampled span", len(trace.TraceEvents))
	}
}

// smokeElements checks the element chain on a live daemon: hot-key
// traffic hits the cache, a /faultz-poisoned tile trips its breaker, and
// a clean pass re-closes it. Each pass walks a schema no earlier pass
// cached, so its misses reach the tiles.
func smokeElements(t *testing.T, r rig, ds []*daemon) {
	d := ds[0]
	pass := func(schema string, extra ...string) {
		r.loadgen(t, append([]string{"-addr", d.addr, "-duration", "1s", "-concurrency", "8", "-schema", schema, "-check"}, extra...)...)
	}
	pass("varint", "-skew", "1.2")
	if n := d.metric(t, "protoacc_serve_elements_cache_hits", ""); n <= 0 {
		t.Fatalf("cache hits under skewed traffic = %v, want > 0", n)
	}
	d.get(t, "/faultz?tile=1&faults=0.9")
	pass("mixed")
	if n := d.metric(t, "protoacc_serve_elements_breaker_trips", ""); n <= 0 {
		t.Fatalf("breaker trips with tile 1 faulted = %v, want > 0", n)
	}
	d.get(t, "/faultz?tile=1&faults=off")
	pass("string")
	if n := d.metric(t, "protoacc_serve_elements_breaker_closes", ""); n <= 0 {
		t.Fatalf("breaker closes after injection stopped = %v, want > 0", n)
	}
	if s := d.metric(t, "protoacc_serve_live_breaker_state", `tile="1"`); s != 0 {
		t.Fatalf("tile 1 breaker state at the end of the drill = %v, want 0 (closed)", s)
	}
}

// smokeWorkloads replays a seeded trace against a live daemon; the
// replay must carry traffic.
func smokeWorkloads(t *testing.T, r rig, ds []*daemon) {
	out := r.loadgen(t, "-addr", ds[0].addr, "-workload", "-trace-seed", "1", "-trace-len", "512",
		"-concurrency", "4", "-check")
	const name = "serve/workload/trace/requests"
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`).FindStringSubmatch(out)
	if m == nil || m[1] == "0" {
		t.Errorf("loadgen output has no %s > 0", name)
	}
}

// smokeCluster drives two daemons through the balancer with health
// polling on; the pool and each node must serve requests.
func smokeCluster(t *testing.T, r rig, ds []*daemon) {
	a, b := ds[0], ds[1]
	out := r.loadgen(t, "-cluster", a.addr+","+b.addr, "-cluster-admin", a.admin+","+b.admin,
		"-duration", "1s", "-concurrency", "8", "-schema", "varint", "-check")
	if m := regexp.MustCompile(`(?m)^cluster: 2 nodes  requests=(\d+) `).FindStringSubmatch(out); m == nil || m[1] == "0" {
		t.Errorf("loadgen output has no \"cluster: 2 nodes  requests=N\" line with N > 0")
	}
	nodes := regexp.MustCompile(`(?m)^  node(\d) \S+: req=(\d+) `).FindAllStringSubmatch(out, -1)
	if len(nodes) != 2 {
		t.Fatalf("loadgen output has %d node lines, want 2", len(nodes))
	}
	for _, m := range nodes {
		if m[2] == "0" {
			t.Errorf("node%s served no request", m[1])
		}
	}
}

// rig holds the binaries TestSmoke built.
type rig struct{ bin string }

// loadgen runs loadgen with args and returns its output, failing the
// test if it exits non-zero.
func (r rig) loadgen(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(r.bin, "loadgen"), args...)
	cmd.Dir = r.bin
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("loadgen %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	t.Logf("loadgen %s\n%s", strings.Join(args, " "), out)
	return string(out)
}

// daemon is one protoaccd process, run in its own temporary directory.
type daemon struct {
	addr  string // data listener, host:port
	admin string // admin listener, host:port
	dir   string // working directory: relative paths in flags land here

	cmd    *exec.Cmd
	stdout bytes.Buffer  // stdout after the two address lines; complete once copied is closed
	stderr bytes.Buffer  // complete once cmd.Wait returns
	copied chan struct{} // closed when stdout reaches EOF
}

// daemon starts protoaccd with both listeners on ephemeral loopback
// ports plus args, and reads the two addresses from its first stdout
// lines. A cleanup stops it and fails the test unless it drains cleanly.
func (r rig) daemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{dir: t.TempDir(), copied: make(chan struct{})}
	d.cmd = exec.Command(filepath.Join(r.bin, "protoaccd"), append([]string{"-listen", "127.0.0.1:0", "-admin", "127.0.0.1:0"}, args...)...)
	d.cmd.Dir = d.dir
	d.cmd.Stderr = &d.stderr
	pipe, err := d.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	out := bufio.NewReader(pipe)
	kill := time.AfterFunc(10*time.Second, func() { d.cmd.Process.Kill() })
	var heads [2]string
	for i := range heads {
		if heads[i], err = out.ReadString('\n'); err != nil {
			break
		}
	}
	kill.Stop()
	go func() {
		io.Copy(&d.stdout, out)
		close(d.copied)
	}()
	t.Cleanup(func() {
		if err := d.stop(); err != nil {
			t.Error(err)
		}
	})

	addr, ok1 := strings.CutPrefix(heads[0], "protoaccd listening on ")
	admin, ok2 := strings.CutPrefix(heads[1], "protoaccd admin on http://")
	if !ok1 || !ok2 {
		t.Fatalf("protoaccd's first stdout lines are %q and %q, want its data and admin addresses", heads[0], heads[1])
	}
	d.addr, _, _ = strings.Cut(addr, " ")
	d.admin, _, _ = strings.Cut(admin, " ")
	return d
}

// stop sends SIGTERM and waits for the daemon to exit. It returns an
// error unless the daemon exits 0 after printing its "drained in" line.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	kill := time.AfterFunc(30*time.Second, func() { d.cmd.Process.Kill() })
	defer kill.Stop()
	<-d.copied
	err := d.cmd.Wait()
	if err == nil && !strings.Contains(d.stdout.String(), "protoaccd: drained in ") {
		err = errors.New(`no "drained in" line`)
	}
	if err != nil {
		return fmt.Errorf("protoaccd %s: %v\nstdout:\n%s\nstderr:\n%s", d.addr, err, &d.stdout, &d.stderr)
	}
	return nil
}

var adminClient = &http.Client{Timeout: 5 * time.Second}

// fetch GETs path from the daemon's admin plane and returns the body of
// a 200 answer.
func (d *daemon) fetch(path string) ([]byte, error) {
	resp, err := adminClient.Get("http://" + d.admin + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s: %s", path, resp.Status, body)
	}
	return body, err
}

func (d *daemon) get(t *testing.T, path string) []byte {
	t.Helper()
	body, err := d.fetch(path)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func (d *daemon) getJSON(t *testing.T, path string, v any) {
	t.Helper()
	if err := json.Unmarshal(d.get(t, path), v); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}

// metric validates the daemon's /metrics exposition and sums the
// samples of one family that carry label (every sample when label is
// empty). It fails the test if no sample matches.
func (d *daemon) metric(t *testing.T, family, label string) float64 {
	t.Helper()
	body := d.get(t, "/metrics")
	if err := telemetry.ValidatePrometheus(bytes.NewReader(body)); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	var sum float64
	found := false
	for _, line := range strings.Split(string(body), "\n") {
		rest, ok := strings.CutPrefix(line, family)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		var labels []string
		if rest[0] == '{' {
			end := strings.IndexByte(rest, '}')
			labels, rest = strings.Split(rest[1:end], ","), rest[end+1:]
		}
		if label != "" && !slices.Contains(labels, label) {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("/metrics: %q: %v", line, err)
		}
		sum += v
		found = true
	}
	if !found {
		t.Fatalf("/metrics has no %s sample with labels %q", family, label)
	}
	return sum
}

// scrapes tallies a scrape loop's fetches.
type scrapes struct {
	decoded int      // /statusz answers decoded as serve.Statusz
	failed  int      // fetches or decodes that failed
	invalid []string // /metrics expositions ValidatePrometheus rejected
}

// scrapeWhile runs f while fetching /statusz and /metrics every 100 ms,
// validating each exposition, and returns the tally.
func (d *daemon) scrapeWhile(f func()) scrapes {
	var sc scrapes
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			var st serve.Statusz
			if body, err := d.fetch("/statusz"); err != nil || json.Unmarshal(body, &st) != nil {
				sc.failed++
			} else {
				sc.decoded++
			}
			if body, err := d.fetch("/metrics"); err != nil {
				sc.failed++
			} else if err := telemetry.ValidatePrometheus(bytes.NewReader(body)); err != nil {
				sc.invalid = append(sc.invalid, err.Error())
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	func() {
		defer func() { close(stop); <-done }()
		f()
	}()
	return sc
}

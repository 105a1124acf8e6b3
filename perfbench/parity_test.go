package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"multihonest/internal/oracle"
	"multihonest/internal/telemetry"
)

// parityQueries is a fixed query set spanning every oracle endpoint.
var parityQueries = []struct{ path, body string }{
	{"/v1/failure?alpha=0.3&ph=0.35&k=100", ""},
	{"/v1/cell?alpha=0.25&frac=0.5&k=150", ""},
	{"/v1/bracket?alpha=0.2&ph=0.4&k=120&tau=1e-20", ""},
	{"/v1/curve?alpha=0.1&frac=0.9&k=40", ""},
	{"/v1/depth?alpha=0.2&frac=0.5&target=1e-6&kmax=2048", ""},
	{"/v1/depth?alpha=0.45&frac=0.25&target=1e-12&kmax=64", ""},
	{"/v1/failure?alpha=0.7&ph=0.1&k=10", ""},
	{"/v1/batch", `{"queries":[{"op":"cell","alpha":0.3,"frac":0.5,"k":50},{"op":"curve","alpha":0.3,"frac":0.5,"k":8},{"op":"failure","alpha":0.1,"ph":0.5,"k":30}]}`},
}

// elapsedField is the batch answer's wall-clock field, the one part of
// any answer that legitimately differs between two servers.
var elapsedField = regexp.MustCompile(`"elapsed_ms": [0-9.e+-]+`)

// TestStackParity builds cmd/serve, starts it with its default flags
// (bar the listen address), and checks that the benchmark's in-process
// stack answers the fixed query set with identical bytes and exposes the
// same /metrics series names.
func TestStackParity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/serve")
	}
	bin := filepath.Join(t.TempDir(), "serve")
	if out, err := exec.Command("go", "build", "-o", bin, "multihonest/cmd/serve").CombinedOutput(); err != nil {
		t.Fatalf("building cmd/serve: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		_ = cmd.Wait()
	}()
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := regexp.MustCompile(`msg=listening addr=(\S+)`).FindStringSubmatch(sc.Text()); m != nil {
				addr <- m[1]
			}
		}
	}()
	var serveBase string
	select {
	case a := <-addr:
		serveBase = "http://" + a
	case <-time.After(30 * time.Second):
		t.Fatal("cmd/serve did not report its listen address")
	}

	st, err := newStack(stackConfig{CacheEntries: oracle.DefaultMaxEntries})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	client := newClient(1)
	defer client.CloseIdleConnections()

	for _, q := range parityQueries {
		want := fetch(t, client, serveBase, q.path, q.body)
		got := fetch(t, client, st.base, q.path, q.body)
		if got != want {
			t.Errorf("%s: in-process stack answered\n%s\ncmd/serve answered\n%s", q.path, got, want)
		}
	}
	if got, want := seriesNames(t, client, st.base), seriesNames(t, client, serveBase); got != want {
		t.Errorf("/metrics series differ:\nin-process: %s\ncmd/serve:  %s", got, want)
	}
}

// fetch returns the status, content type and body of one request, with
// the batch elapsed time masked.
func fetch(t *testing.T, c *http.Client, base, path, body string) string {
	t.Helper()
	var resp *http.Response
	var err error
	if body == "" {
		resp, err = c.Get(base + path)
	} else {
		resp, err = c.Post(base+path, "application/json", strings.NewReader(body))
	}
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	b = elapsedField.ReplaceAll(b, []byte(`"elapsed_ms": _`))
	return resp.Status + " " + resp.Header.Get("Content-Type") + "\n" + string(b)
}

// seriesNames scrapes /metrics and returns its sorted series names.
func seriesNames(t *testing.T, c *http.Client, base string) string {
	t.Helper()
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := telemetry.ParseText(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range sc.Samples {
		seen[s.Name] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}

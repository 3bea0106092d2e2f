package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/carbonedge/carbonedge/internal/deploy"
)

func TestRunFlagErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-edges", "0"}, &out); err == nil {
		t.Error("expected error for zero edges")
	}
	if err := run([]string{"-horizon", "0"}, &out); err == nil {
		t.Error("expected error for zero horizon")
	}
	if err := run([]string{"-badflag"}, &out); err == nil {
		t.Error("expected flag parse error")
	}
	if err := run([]string{"-listen", "999.999.999.999:0", "-train", "50", "-epochs", "1"}, &out); err == nil {
		t.Error("expected error for bad listen address")
	}
}

// TestPrintSummaryRegionsLine pins the root's elasticity line: absent on a
// fault-free run (all three counters nil), one line of totals otherwise.
func TestPrintSummaryRegionsLine(t *testing.T) {
	var out strings.Builder
	printSummary(&out, &deploy.Summary{})
	if strings.Contains(out.String(), "regions:") {
		t.Errorf("fault-free summary prints a regions line:\n%s", out.String())
	}
	out.Reset()
	printSummary(&out, &deploy.Summary{
		RegionResumes: map[int]int{1: 1, 3: 2},
		RegionRetries: []int{0, 2, 0, 1},
		Rebalances:    []int{0, 1, 0, 0},
	})
	if want := "regions: resumes=3 retries=3 rebalances=1\n"; !strings.Contains(out.String(), want) {
		t.Errorf("summary output %q does not contain %q", out.String(), want)
	}
}

// e2eSummary is what the paper's Fig. 1 system prints at seed 11: a cloud
// driving four carbonedge-edge processes over TCP for 40 slots, whether
// the cloud is one process or a root over two regional coordinators.
const e2eSummary = "run complete: loss=77.11 downloads=60 accuracy=0.718 emissions=0.1635g trade=1.2322 fit=0.00615g"

var addrRE = regexp.MustCompile(`127\.0\.0\.1:\d+`)

// server is one in-process run of the command that listens.
type server struct {
	addr string        // the address its listening line names
	done chan struct{} // closed when run has returned
	out  []string      // its stdout lines, addresses masked; complete once done
	err  error         // what run returned, once done
}

// serve starts run(args) in process and returns once its stdout has named
// the address it listens on.
func serve(t *testing.T, args ...string) *server {
	t.Helper()
	pr, pw := io.Pipe()
	runErr := make(chan error, 1)
	go func() {
		err := run(args, pw)
		pw.Close()
		runErr <- err
	}()
	s := &server{done: make(chan struct{})}
	sc := bufio.NewScanner(pr)
	for s.addr == "" && sc.Scan() {
		if strings.Contains(sc.Text(), "listening on ") {
			s.addr = addrRE.FindString(sc.Text())
		}
		s.out = append(s.out, addrRE.ReplaceAllString(sc.Text(), "ADDR"))
	}
	if s.addr == "" {
		t.Fatalf("%v printed no listening address (run: %v):\n%s", args, <-runErr, strings.Join(s.out, "\n"))
	}
	go func() {
		for sc.Scan() {
			s.out = append(s.out, addrRE.ReplaceAllString(sc.Text(), "ADDR"))
		}
		s.err = <-runErr
		close(s.done)
	}()
	return s
}

// expect waits for the run to return and compares its stdout with want.
func (s *server) expect(t *testing.T, want ...string) {
	t.Helper()
	<-s.done
	if s.err != nil {
		t.Errorf("run: %v", s.err)
	}
	if got := strings.Join(s.out, "\n"); got != strings.Join(want, "\n") {
		t.Errorf("stdout:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
}

// edgeAgent is one carbonedge-edge process.
type edgeAgent struct {
	id  int
	cmd *exec.Cmd
	out bytes.Buffer // stdout and stderr
}

// startEdges starts the edge binary bin once for each id, connected to addr
// at seed 11. The test's end kills any that are still running.
func startEdges(t *testing.T, bin, addr string, ids ...int) []*edgeAgent {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	var edges []*edgeAgent
	for _, id := range ids {
		e := &edgeAgent{id: id}
		e.cmd = exec.CommandContext(ctx, bin, "-connect", addr, "-seed", "11", "-id", strconv.Itoa(id))
		e.cmd.Stdout, e.cmd.Stderr = &e.out, &e.out
		if err := e.cmd.Start(); err != nil {
			t.Fatal(err)
		}
		edges = append(edges, e)
	}
	return edges
}

// expectEdges waits for each edge and compares its output with a clean run's.
func expectEdges(t *testing.T, edges []*edgeAgent) {
	t.Helper()
	for _, e := range edges {
		err := e.cmd.Wait()
		want := fmt.Sprintf("edge %d connected to ADDR\nedge %d done\n", e.id, e.id)
		if got := addrRE.ReplaceAllString(e.out.String(), "ADDR"); err != nil || got != want {
			t.Errorf("edge %d: %v, output:\n%swant:\n%s", e.id, err, got, want)
		}
	}
}

// TestRunEndToEnd runs the paper's Fig. 1 system as it is deployed: this
// command in process and four carbonedge-edge binaries, once with a
// standalone cloud and once as a root over two regional coordinators. Both
// must print the same summary. Each run trains a zoo per cloud or region.
func TestRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds carbonedge-edge and trains three zoos")
	}
	bin := filepath.Join(t.TempDir(), "carbonedge-edge")
	if out, err := exec.Command("go", "build", "-o", bin, "../carbonedge-edge").CombinedOutput(); err != nil {
		t.Fatalf("go build carbonedge-edge: %v\n%s", err, out)
	}

	t.Run("standalone", func(t *testing.T) {
		cloud := serve(t, "-listen", "127.0.0.1:0", "-edges", "4", "-seed", "11")
		edges := startEdges(t, bin, cloud.addr, 0, 1, 2, 3)
		cloud.expect(t, "training the model zoo...", "listening on ADDR for 4 edges", e2eSummary)
		expectEdges(t, edges)
	})

	t.Run("root", func(t *testing.T) {
		root := serve(t, "-mode", "root", "-listen", "127.0.0.1:0", "-edges", "4", "-regions", "2", "-seed", "11")
		var regions []*server
		var edges []*edgeAgent
		for r := 0; r < 2; r++ {
			// An edge's first dial fails at once, so a region's edges start
			// only once it listens. Region r owns edges [2r, 2r+2).
			region := serve(t, "-mode", "region", "-region-id", strconv.Itoa(r), "-connect", root.addr,
				"-listen", "127.0.0.1:0", "-seed", "11")
			regions = append(regions, region)
			edges = append(edges, startEdges(t, bin, region.addr, 2*r, 2*r+1)...)
		}
		root.expect(t, "root listening on ADDR for 2 regions (4 edges total)", e2eSummary)
		for r, region := range regions {
			region.expect(t, "training the model zoo...",
				fmt.Sprintf("region %d listening on ADDR, root at ADDR", r),
				fmt.Sprintf("region %d connected to root at ADDR", r),
				fmt.Sprintf("region %d complete", r))
		}
		expectEdges(t, edges)
	})
}

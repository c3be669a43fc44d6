package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/experiments"
	"github.com/afrinet/observatory/internal/federation"
	"github.com/afrinet/observatory/internal/probes"
)

// newDurable boots a durable controller with one registered probe and a
// two-task experiment, and returns the controller and the experiment id.
func newDurable(t *testing.T) (*core.Controller, string) {
	t.Helper()
	c, err := core.Recover(t.TempDir(), core.DurabilityConfig{Trusted: []string{benchOwner}, LeaseTTL: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.RegisterProbe(core.ProbeInfo{ID: "p-1", Country: "KE", ASN: 36900}); err != nil {
		t.Fatal(err)
	}
	exp, err := c.SubmitExperiment(benchOwner, "gate test", []probes.Assignment{
		{ProbeID: "p-1", Task: probes.Task{Kind: probes.TaskPing, Target: "10.0.0.1"}},
		{ProbeID: "p-1", Task: probes.Task{Kind: probes.TaskPing, Target: "10.0.0.2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, exp.ID
}

// deliver leases up to max tasks for p-1 and submits their results.
func deliver(t *testing.T, c *core.Controller, max int) []probes.Result {
	t.Helper()
	var rs []probes.Result
	for _, task := range c.LeaseTasks("p-1", max) {
		rs = append(rs, execute(1, "p-1", task))
	}
	if _, err := c.SubmitResults("p-1", rs); err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestAuditExactlyOncePassesCleanRun(t *testing.T) {
	c, _ := newDurable(t)
	deliver(t, c, 2)
	if errs := auditExactlyOnce([]*core.Controller{c}, 2); len(errs) != 0 {
		t.Fatalf("clean run failed the audit: %v", errs)
	}
}

func TestAuditExactlyOnceDetectsViolations(t *testing.T) {
	t.Run("acked differs from recorded", func(t *testing.T) {
		c, _ := newDurable(t)
		deliver(t, c, 2)
		assertGateFails(t, auditExactlyOnce([]*core.Controller{c}, 3), "clients saw 3")
	})
	t.Run("duplicate delivery", func(t *testing.T) {
		c, _ := newDurable(t)
		rs := deliver(t, c, 2)
		if _, err := c.SubmitResults("p-1", rs[:1]); err != nil {
			t.Fatal(err)
		}
		assertGateFails(t, auditExactlyOnce([]*core.Controller{c}, 2), "deduplicated")
	})
	t.Run("rejected result", func(t *testing.T) {
		c, exp := newDurable(t)
		deliver(t, c, 2)
		_, _ = c.SubmitResults("p-1", []probes.Result{{TaskID: "no-such-task", Experiment: exp, Kind: probes.TaskPing, OK: true}})
		assertGateFails(t, auditExactlyOnce([]*core.Controller{c}, 2), "rejected")
	})
	t.Run("requeued task", func(t *testing.T) {
		c, err := core.Recover(t.TempDir(), core.DurabilityConfig{Trusted: []string{benchOwner}, LeaseTTL: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.RegisterProbe(core.ProbeInfo{ID: "p-1", Country: "KE", ASN: 36900}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.SubmitExperiment(benchOwner, "expiry", []probes.Assignment{
			{ProbeID: "p-1", Task: probes.Task{Kind: probes.TaskPing, Target: "10.0.0.1"}},
		}); err != nil {
			t.Fatal(err)
		}
		c.LeaseTasks("p-1", 1)
		c.Tick(3) // the lease expires and the task goes back on the queue
		assertGateFails(t, auditExactlyOnce([]*core.Controller{c}, 0), "requeued")
	})
	t.Run("lease open after drain", func(t *testing.T) {
		c, _ := newDurable(t)
		deliver(t, c, 1)
		c.LeaseTasks("p-1", 1) // leased, never delivered
		assertGateFails(t, auditExactlyOnce([]*core.Controller{c}, 1), "leases open")
	})
}

func TestAuditAggregates(t *testing.T) {
	c, exp := newDurable(t)
	deliver(t, c, 1)
	h := c.Handler()
	in := map[string]*liveExp{exp: {tasks: 2, acked: 1}}
	if errs := auditAggregates(h, nil, in, []string{exp}); len(errs) != 0 {
		t.Fatalf("in-flight experiment with its acknowledged result failed: %v", errs)
	}
	// Claiming a second acknowledged result the store does not hold.
	in[exp].acked = 2
	assertGateFails(t, auditAggregates(h, nil, in, []string{exp}), "matched 1, want 2")
	// A preloaded experiment must match its full task count.
	assertGateFails(t, auditAggregates(h, []preloaded{{id: exp, tasks: 2}}, nil, nil), "matched 1, want 2")
	// A completed experiment must have all its results acknowledged.
	in[exp] = &liveExp{tasks: 2, acked: 1, done: true}
	assertGateFails(t, auditAggregates(h, nil, in, []string{exp}), "completed with 1 of 2")
}

func TestAuditAggregatesDetectsDegradedFederation(t *testing.T) {
	coord, err := federation.New("", federation.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var shards []*federation.LocalShard
	for _, id := range []string{"shard-0", "shard-1"} {
		sh := federation.NewLocalShard(core.NewController(benchOwner))
		shards = append(shards, sh)
		if err := coord.AddShard(id, sh); err != nil {
			t.Fatal(err)
		}
	}
	var as []probes.Assignment
	for i := 0; i < 16; i++ {
		p := core.ProbeInfo{ID: "p-" + string(rune('a'+i)), Country: "KE", ASN: 36900}
		if err := coord.Register(p); err != nil {
			t.Fatal(err)
		}
		as = append(as, probes.Assignment{ProbeID: p.ID, Task: probes.Task{Kind: probes.TaskPing, Target: "10.0.0.1"}})
	}
	exp, err := coord.Submit("req-1", benchOwner, "fed gate", as)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range as {
		tasks, err := coord.LeaseTasks(a.ProbeID, 4)
		if err != nil {
			t.Fatal(err)
		}
		var rs []probes.Result
		for _, task := range tasks {
			rs = append(rs, execute(1, a.ProbeID, task))
		}
		if _, err := coord.SubmitResults(a.ProbeID, rs); err != nil {
			t.Fatal(err)
		}
	}
	pre := []preloaded{{id: exp.ID, tasks: int64(len(as))}}
	if errs := auditAggregates(coord.Handler(), pre, nil, nil); len(errs) != 0 {
		t.Fatalf("healthy federation failed the gate: %v", errs)
	}
	shards[1].Kill()
	assertGateFails(t, auditAggregates(coord.Handler(), pre, nil, nil), "degraded")
}

func TestGoldenSectionsAndDrift(t *testing.T) {
	transcript := "\n################ A ################\nalpha 1\n\n[a completed in 3ms]\n" +
		"\n################ B ################\nbeta\n[b completed in 1.2s]\n"
	golden := goldenSections(transcript)
	if got, want := golden[sectionHeader("A")], "\n################ A ################\nalpha 1\n\n"; got != want {
		t.Fatalf("section A = %q, want %q", got, want)
	}
	saved := reproList
	defer func() { reproList = saved }()
	reproList = []reproExp{{id: "a", title: "A"}, {id: "b", title: "B"}, {id: "c", title: "C"}}
	sw := &sweepResult{sections: map[string]string{
		"a": golden[sectionHeader("A")],
		"b": golden[sectionHeader("B")],
		"c": "\n################ C ################\nnot in the transcript\n",
	}}
	if errs := checkGolden(sw, golden); len(errs) != 0 {
		t.Fatalf("matching sections failed: %v", errs)
	}
	drift := &sweepResult{sections: map[string]string{"a": sw.sections["a"], "b": strings.Replace(sw.sections["b"], "beta", "beta'", 1), "c": sw.sections["c"]}}
	assertGateFails(t, checkGolden(drift, golden), "section b differs")
	changed := &sweepResult{sections: map[string]string{"a": sw.sections["a"], "b": sw.sections["b"], "c": sw.sections["c"] + "x"}}
	assertGateFails(t, checkRepeatable(sw, changed), "section c changed")
}

// TestSweepMatchesTranscript is the repro-sweep gate on this tree: at
// seed 42 every section the checked-in transcript holds renders
// byte-identically, and an Env built constructor by constructor renders
// exactly what NewEnv's renders.
func TestSweepMatchesTranscript(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full sweeps")
	}
	golden, err := readGolden(filepath.Join("..", "repro_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := runSweep(42, experiments.NewEnv(42, envYear), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if errs := checkGolden(sw, golden); len(errs) != 0 {
		t.Fatalf("sweep differs from repro_output.txt: %v", errs)
	}
	env, steps := buildEnvTraced(42, NewTracer())
	if len(steps) == 0 {
		t.Fatal("no constructor steps timed")
	}
	traced, err := runSweep(42, env, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if errs := checkRepeatable(sw, traced); len(errs) != 0 {
		t.Fatalf("constructor-built Env renders differently: %v", errs)
	}
}

// TestRunFailsOnGateViolation shows a violated gate failing the whole
// run: with one line of the checked-in transcript altered, a seed-42
// repro-sweep run returns errGates, which main turns into exit code 1.
func TestRunFailsOnGateViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full sweeps")
	}
	raw, err := os.ReadFile(filepath.Join("..", "repro_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	const line = "== Fig 1 — IXPs by region over time =="
	if !strings.Contains(string(raw), line) {
		t.Fatalf("transcript lacks %q", line)
	}
	root := t.TempDir()
	altered := strings.Replace(string(raw), line, line+" (altered)", 1)
	if err := os.WriteFile(filepath.Join(root, "repro_output.txt"), []byte(altered), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("repro-sweep", 42, 1, 0, root); !errors.Is(err, errGates) {
		t.Fatalf("run with a drifted section returned %v, want %v", err, errGates)
	}
}

// TestFleetPassGatesHold runs short fleet windows end to end through
// the HTTP surface: the gates pass on this tree.
func TestFleetPassGatesHold(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two one-second fleet windows")
	}
	for _, cfg := range []fleetConfig{fleetSyncConfig, fedQueryConfig} {
		cfg.probes, cfg.setups = 80, 1
		out, err := runFleetPass(cfg, passOpts{seed: 7, seconds: 1, data: t.TempDir()}, NewTracer())
		if err != nil {
			t.Fatal(err)
		}
		if len(out.errs) != 0 || out.failed != 0 {
			t.Fatalf("federated=%v: gates failed: %v (failed ops %d)", cfg.federated, out.errs, out.failed)
		}
		if out.e2e["throughput_per_s"] <= 0 || out.e2e["call_ms"] <= 0 {
			t.Fatalf("federated=%v: no work measured: %v", cfg.federated, out.e2e)
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json's metric names
// and units in step with what the benchmark prints.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var got []string
	for _, w := range doc.Workloads {
		got = append(got, w.Name)
	}
	if strings.Join(got, ",") != strings.Join(names, ",") {
		t.Errorf("workloads = %v, want %v", got, names)
	}
	check := func(kind string, have []struct{ Name, Unit string }, want []metricDef) {
		if len(have) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(have), len(want))
			return
		}
		for i := range want {
			if have[i].Name != want[i].name || have[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), want %s (%s)", kind, i, have[i].Name, have[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer())
}

func assertGateFails(t *testing.T, errs []string, want string) {
	t.Helper()
	for _, e := range errs {
		if strings.Contains(e, want) {
			return
		}
	}
	t.Fatalf("gate did not report %q; got %v", want, errs)
}

package main

// sweep.go runs the paper-reproduction workload: cmd/repro's full
// experiment list, driver by driver, over a fresh experiments.Env per
// sweep, rendering each section exactly as cmd/repro prints it.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/afrinet/observatory/internal/bgp"
	"github.com/afrinet/observatory/internal/content"
	"github.com/afrinet/observatory/internal/dnssim"
	"github.com/afrinet/observatory/internal/experiments"
	"github.com/afrinet/observatory/internal/geoloc"
	"github.com/afrinet/observatory/internal/ixp"
	"github.com/afrinet/observatory/internal/netsim"
	"github.com/afrinet/observatory/internal/registry"
	"github.com/afrinet/observatory/internal/topology"
)

// envYear is the snapshot year cmd/repro builds its environment for.
const envYear = 2025

type renderable interface{ Render(io.Writer) }

// reproExp is one cmd/repro section: its id, its title line and its
// driver.
type reproExp struct {
	id, title string
	run       func(seed int64, env *experiments.Env) (renderable, error)
}

func envDriver[T renderable](f func(*experiments.Env) T) func(int64, *experiments.Env) (renderable, error) {
	return func(_ int64, env *experiments.Env) (renderable, error) { return f(env), nil }
}

// reproList mirrors cmd/repro's run order and titles.
var reproList = []reproExp{
	{"fig1", "FIGURE 1 — infrastructure growth", func(seed int64, _ *experiments.Env) (renderable, error) {
		return experiments.Fig1Growth(seed), nil
	}},
	{"fig2a", "FIGURE 2a — detour prevalence", envDriver(experiments.Fig2aDetours)},
	{"fig2b", "FIGURE 2b — content locality", envDriver(experiments.Fig2bContentLocality)},
	{"fig2c", "FIGURE 2c — resolver locality", envDriver(experiments.Fig2cResolverUse)},
	{"fig3", "FIGURE 3 — IXP prevalence", envDriver(experiments.Fig3IXPPrevalence)},
	{"fig4", "FIGURE 4 — outage impact", envDriver(experiments.Fig4Outages)},
	{"table1", "TABLE 1 — scanning coverage", envDriver(experiments.Table1Scan)},
	{"nautilus", "§6.2 — cable identification", envDriver(experiments.NautilusAmbiguity)},
	{"cover", "FOOTNOTE 1 — IXP set cover", envDriver(experiments.SetCoverPlacement)},
	{"pilot", "§7.3 — Kigali pilot", envDriver(experiments.KigaliPilot)},
	{"whatif", "WHAT-IF — correlated cable cut", envDriver(experiments.WhatIfCableCut)},
	{"radar", "VALIDATION — Radar-style detection", envDriver(experiments.RadarValidation)},
	{"anycast", "§7.2 WORKLOAD — anycast census", envDriver(experiments.AnycastCensus)},
	{"websteps", "§7.2 WORKLOAD — websteps censorship sweep", envDriver(experiments.WebstepsCensorship)},
	{"dnsload", "§5.2 AT SCALE — ECS localization under paced DNS load", envDriver(experiments.DNSLocalization)},
	{"platform", "SYSTEM — measurements through the live platform", func(_ int64, env *experiments.Env) (renderable, error) {
		r, err := experiments.PlatformRun(env, 24)
		return r, err
	}},
	{"ablation-placement", "ABLATION — probe placement", envDriver(experiments.AblationPlacement)},
	{"ablation-budget", "ABLATION — budget scheduling", envDriver(experiments.AblationBudget)},
	{"ablation-correlated", "ABLATION — correlated cable failures", envDriver(experiments.AblationCorrelatedCuts)},
}

// sectionHeader is the line cmd/repro prints before each section.
func sectionHeader(title string) string {
	return "################ " + title + " ################"
}

// sweepResult is one full sweep: the rendered sections (without the
// per-section timing lines cmd/repro adds) and the per-driver times.
type sweepResult struct {
	sections map[string]string // id -> header line + rendered body
	expTime  map[string]time.Duration
	total    time.Duration
	dnsHits  uint64
	dnsMiss  uint64
}

// runSweep runs every driver once over env.
// A non-nil speed probe runs after each driver, outside its timing and
// outside the sweep's total.
func runSweep(seed int64, env *experiments.Env, tr *Tracer, speed *speedProbe) (*sweepResult, error) {
	res := &sweepResult{sections: make(map[string]string), expTime: make(map[string]time.Duration)}
	root := tr.Open(0, fmt.Sprintf("sweep-%d", seed), "sweep", "sweep")
	start := time.Now()
	var probing time.Duration
	for _, e := range reproList {
		sp := tr.Open(root, "", "exp."+e.id, "exp."+e.id)
		t0 := time.Now()
		r, err := e.run(seed, env)
		if err != nil {
			tr.Close(sp)
			return nil, fmt.Errorf("%s: %w", e.id, err)
		}
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "\n%s\n", sectionHeader(e.title))
		r.Render(&buf)
		res.expTime[e.id] = time.Since(t0)
		tr.Close(sp)
		res.sections[e.id] = buf.String()
		if speed != nil {
			probing += speed.sample()
		}
	}
	res.total = time.Since(start) - probing
	tr.Close(root)
	res.dnsHits, res.dnsMiss = env.DNS.ChainCacheStats()
	return res, nil
}

// envStep is one constructor NewEnv calls, timed on its own.
type envStep struct {
	name string
	d    time.Duration
}

// buildEnvTraced builds the same Env NewEnv builds, calling the same
// public constructors in the same order, timing each.
func buildEnvTraced(seed int64, tr *Tracer) (*experiments.Env, []envStep) {
	var steps []envStep
	root := tr.Open(0, fmt.Sprintf("env-%d", seed), "env", "env")
	step := func(name string, f func()) {
		sp := tr.Open(root, "", "env."+name, "env."+name)
		t0 := time.Now()
		f()
		steps = append(steps, envStep{name, time.Since(t0)})
		tr.Close(sp)
	}
	env := &experiments.Env{Seed: seed}
	step("topology", func() { env.Topo = topology.Generate(topology.Params{Seed: seed, Year: envYear}) })
	step("bgp", func() { env.Router = bgp.New(env.Topo) })
	step("netsim", func() { env.Net = netsim.New(env.Topo, env.Router, seed) })
	step("registry", func() { env.Dir = registry.IXPDirectory(env.Topo) })
	step("routed_table", func() { env.Table = bgp.BuildRoutedTable(env.Topo) })
	step("dnssim", func() { env.DNS = dnssim.New(env.Net, seed) })
	step("content", func() { env.Web = content.New(env.Net, seed) })
	step("geoloc", func() { env.GeoDB = geoloc.New(env.Topo, seed) })
	step("ixp", func() { env.Detector = ixp.NewDetector(env.Dir) })
	tr.Close(root)
	return env, steps
}

// goldenSections parses a cmd/repro transcript into sections keyed by
// header line. cmd/repro ends every section with one
// "[<id> completed in <d>]" timing line, so the text between two timing
// lines is exactly one section as runSweep renders it.
func goldenSections(transcript string) map[string]string {
	out := make(map[string]string)
	var b strings.Builder
	for _, line := range strings.SplitAfter(transcript, "\n") {
		trimmed := strings.TrimSuffix(line, "\n")
		if strings.HasPrefix(trimmed, "[") && strings.Contains(trimmed, " completed in ") && strings.HasSuffix(trimmed, "]") {
			section := b.String()
			b.Reset()
			lines := strings.SplitN(section, "\n", 3)
			if len(lines) == 3 && lines[0] == "" {
				out[lines[1]] = section
			}
			continue
		}
		b.WriteString(line)
	}
	return out
}

// checkGolden compares every section the golden transcript holds with
// the sweep's rendering of it.
func checkGolden(s *sweepResult, golden map[string]string) []string {
	var errs []string
	for _, e := range reproList {
		want, ok := golden[sectionHeader(e.title)]
		if !ok {
			continue
		}
		got := s.sections[e.id]
		if got != want {
			errs = append(errs, fmt.Sprintf("repro section %s differs from repro_output.txt (%s)", e.id, firstDiff(got, want)))
		}
	}
	return errs
}

// checkRepeatable requires every section of a later sweep to be
// byte-identical to the first sweep's.
func checkRepeatable(first, later *sweepResult) []string {
	var errs []string
	for _, e := range reproList {
		if first.sections[e.id] != later.sections[e.id] {
			errs = append(errs, fmt.Sprintf("repro section %s changed between sweeps (%s)", e.id,
				firstDiff(later.sections[e.id], first.sections[e.id])))
		}
	}
	return errs
}

// firstDiff describes where two texts first differ.
func firstDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g, w)
		}
	}
	return "identical"
}

// readGolden loads the checked-in cmd/repro transcript.
func readGolden(path string) (map[string]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return goldenSections(string(raw)), nil
}

// Command hpfqbench is the end-to-end benchmark of hpfq: it drives the
// hpfqgw gateway binary over loopback and the hpfq.NewDataplane engine
// in-process, checks every output against the oracles in ./oracle, and
// prints one JSON result as its last line. Run it from the repository root
// through run.sh, which builds both binaries first:
//
//	bash e2ebench/run.sh --workload gw-fig1-paced --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and the reference figures.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Metric units, by name. End-to-end metrics come from untraced runs,
// per-layer metrics from traced ones.
var (
	e2eUnits = map[string]string{
		"setup_s":        "s",
		"delivered_pps":  "pkt/s",
		"cpu_us_per_pkt": "us",
		"lat_p50_us":     "us",
		"lat_p99_us":     "us",
		"peak_rss_mb":    "MB",
	}
	layerUnits = map[string]string{
		"hpfqgw.user_us_per_pkt":        "us",
		"hpfqgw.sys_us_per_pkt":         "us",
		"hpfqgw.ctxsw_per_kpkt":         "1/kpkt",
		"hpfqgw.udp_recv_ns":            "ns",
		"hpfqgw.udp_send_ns":            "ns",
		"hpfqgw.flow_setup_us":          "us",
		"hpfqgw.rss_after_setup_mb":     "MB",
		"dataplane.batch_avg":           "pkt",
		"dataplane.ingest_ns":           "ns",
		"dataplane.pump_ns_per_pkt":     "ns",
		"dataplane.allocs_per_pkt":      "count",
		"dataplane.alloc_bytes_per_pkt": "B",
		"dataplane.new_s":               "s",
		"hier.enqueue_ns":               "ns",
		"hier.dequeue_ns":               "ns",
		"obs.metrics_ns_per_pkt":        "ns",
		"loadgen.lag_p99_us":            "us",
		"loadgen.cpu_us_per_pkt":        "us",
		"loadgen.kernel_drops":          "count",
		"trace.overhead_pct":            "%",
	}
)

// result collects one run's metrics, checks and notes.
type result struct {
	attempted, failed uint64
	e2eM, layerM      map[string]float64
	failures          []string
	notes             []string
}

func newResult() *result {
	return &result{e2eM: map[string]float64{}, layerM: map[string]float64{}}
}

func (r *result) e2e(name string, v float64)   { r.e2eM[name] = v }
func (r *result) layer(name string, v float64) { r.layerM[name] = v }
func (r *result) notef(f string, a ...any)     { r.notes = append(r.notes, fmt.Sprintf(f, a...)) }

func (r *result) check(ok bool, f string, a ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(f, a...))
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable report and, last, the JSON line.
func (r *result) print(trace bool) error {
	want, got := e2eUnits, r.e2eM
	if trace {
		want, got = layerUnits, r.layerM
	}
	out := map[string]metricOut{}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v, ok := got[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", name)
		}
		out[name] = metricOut{Value: v, Unit: want[name]}
	}
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	for _, f := range r.failures {
		fmt.Println("# CHECK FAILED:", f)
	}
	for _, name := range names {
		fmt.Printf("%-32s %14.4f %s\n", name, out[name].Value, out[name].Unit)
	}
	b, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted uint64               `json:"attempted"`
		Failed    uint64               `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{len(r.failures) == 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func main() {
	var err error
	args := os.Args[1:]
	switch {
	case len(args) > 0 && args[0] == "gen":
		err = genMain(args[1:])
	case len(args) > 0 && args[0] == "engine":
		err = engineMain(args[1:])
	case len(args) > 0 && args[0] == "layers":
		err = layersMain(args[1:])
	default:
		err = benchMain(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpfqbench:", err)
		os.Exit(1)
	}
}

func benchMain(args []string) error {
	fs := flag.NewFlagSet("hpfqbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+fmt.Sprint(workloadNames))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	gwBin := fs.String("gw", ".bench_build/hpfqgw", "hpfqgw binary built from the tree under test")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "where traced runs write their spans")
	gwExtra := fs.String("gw-extra", "", "extra hpfqgw flags, space-separated, for probes outside the fixed workloads (e.g. \"-shards 2\")")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !slices.Contains(workloadNames, *workload) {
		return fmt.Errorf("-workload %q: want one of %v", *workload, workloadNames)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds %g: want at least 1", *seconds)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	traced := *trace == 1
	var r *result
	if *workload == wEngine {
		r, err = runEngineChild(self, *seed, *seconds, traced, *traceDir)
	} else {
		var bin string
		if bin, err = filepath.Abs(*gwBin); err != nil {
			return err
		}
		if _, err := os.Stat(bin); err != nil {
			return fmt.Errorf("hpfqgw binary: %v", err)
		}
		r, err = runGateway(*workload, *seed, *seconds, traced, bin, self, *traceDir, strings.Fields(*gwExtra))
	}
	if err != nil {
		return err
	}
	return r.print(traced)
}

func genMain(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	spec := fs.String("spec", "", "generator spec (JSON)")
	tracePath := fs.String("trace-out", "", "traced run: write spans here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return runGen(*spec, *tracePath)
}

func layersMain(args []string) error {
	fs := flag.NewFlagSet("layers", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload")
	seed := fs.Int64("seed", 1, "workload seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := layerMetrics(*workload, *seed, true)
	if err != nil {
		return err
	}
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// engineSetups is how many times the engine workload times its set-up.
const engineSetups = 5

// engineOut is the engine child's report to the orchestrator.
type engineOut struct {
	Attempted, Failed uint64
	Failures          []string
	Notes             []string
	E2E, Layer        map[string]float64
}

func engineMain(args []string) error {
	fs := flag.NewFlagSet("engine", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured window")
	trace := fs.Bool("trace", false, "traced run")
	tracePath := fs.String("trace-out", "", "traced run: write spans here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	drops0, err := udpKernelDrops()
	if err != nil {
		return err
	}
	tree := tenKTree(*seed)
	res, err := runEngine(tree, engineOpts{
		setups:  engineSetups,
		warm:    500 * time.Millisecond,
		measure: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace,
	})
	if err != nil {
		return err
	}
	peak := selfUsage().maxRSSMB
	r := newResult()
	rep := res.Report
	r.attempted = rep.Attempted + res.IngestFailed
	r.failed = rep.Failed + res.IngestFailed
	d := float64(max(1, res.Delivered))
	r.e2e("setup_s", median(res.SetupS))
	r.e2e("delivered_pps", quietQuartile(res.SlicePPS, false))
	r.e2e("cpu_us_per_pkt", quietQuartile(res.SliceCPU, true))
	r.e2e("lat_p50_us", quietQuartile(res.SliceP50Us, true))
	r.e2e("lat_p99_us", quietQuartile(res.SliceP99Us, true))
	r.e2e("peak_rss_mb", peak)
	r.check(res.FairWorst <= 1, "leaf %d strayed %.2f× the WF²Q+ bound from its H-GPS share", res.FairLeaf, res.FairWorst)
	r.check(rep.Corrupt == 0 && rep.Late == 0, "checker: %+v", rep)
	r.notef("window %.3f s: %d datagrams; %d latency samples", res.Seconds, res.Delivered, res.LatN)
	r.notef("slices: pkt/s %.0f", res.SlicePPS)
	r.notef("slices: µs/pkt %.3f", res.SliceCPU)
	r.notef("slices: p99 µs %.0f", res.SliceP99Us)
	r.notef("checker: %+v, failed ingests %d", rep, res.IngestFailed)
	r.notef("fairness: worst leaf %d at %.3f of the WF²Q+ bound", res.FairLeaf, res.FairWorst)
	r.notef("setups %s, NewDataplane %s", fmtSecs(res.SetupS), fmtSecs(res.NewS))
	if *trace {
		drops1, err := udpKernelDrops()
		if err != nil {
			return err
		}
		r.layer("hpfqgw.user_us_per_pkt", float64(res.User.Nanoseconds())/1e3/d)
		r.layer("hpfqgw.sys_us_per_pkt", float64(res.Sys.Nanoseconds())/1e3/d)
		r.layer("hpfqgw.ctxsw_per_kpkt", 1000*float64(res.Ctxsw)/d)
		r.layer("hpfqgw.flow_setup_us", 1e6*median(res.SetupS)/float64(len(tree.leaves)))
		r.layer("hpfqgw.rss_after_setup_mb", res.RSSAfterSetup)
		engineLayerMetrics(r.layerM, res)
		r.layer("loadgen.lag_p99_us", res.Lag.quantile(0.99)/1e3)
		r.layer("loadgen.cpu_us_per_pkt", float64(res.HarnessNs)/1e3/float64(max(1, res.HarnessPkt)))
		r.layer("loadgen.kernel_drops", float64(drops1-drops0))
		r.layer("trace.overhead_pct", res.OverheadPct)
		if *tracePath != "" {
			if err := writeSpans(*tracePath, res.spans); err != nil {
				return err
			}
		}
		lm, err := layerMetrics(wEngine, *seed, false)
		if err != nil {
			return err
		}
		for k, v := range lm {
			r.layer(k, v)
		}
	}
	b, err := json.Marshal(engineOut{r.attempted, r.failed, r.failures, r.notes, r.e2eM, r.layerM})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runEngineChild runs the engine workload in a child pinned to half the
// CPUs, so its CPU time and peak RSS are its own.
func runEngineChild(self string, seed int64, seconds float64, trace bool, traceDir string) (*result, error) {
	a, _, na, _, err := cpuHalves()
	if err != nil {
		return nil, err
	}
	args := []string{"engine", "-seed", strconv.FormatInt(seed, 10), "-seconds", fmt.Sprint(seconds)}
	tracePath := ""
	if trace {
		tracePath = fmt.Sprintf("%s/%s-seed%d.jsonl", traceDir, wEngine, seed)
		args = append(args, "-trace", "-trace-out", tracePath)
	}
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := startPinned(cmd, a, na); err != nil {
		return nil, err
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("engine: %v", err)
	}
	var eo engineOut
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &eo); err != nil {
		return nil, fmt.Errorf("engine output %q: %v", out.String(), err)
	}
	r := &result{attempted: eo.Attempted, failed: eo.Failed, e2eM: eo.E2E, layerM: eo.Layer, failures: eo.Failures, notes: eo.Notes}
	if r.layerM == nil {
		r.layerM = map[string]float64{}
	}
	if trace {
		r.notef("trace: spans written to %s", tracePath)
	}
	return r, nil
}

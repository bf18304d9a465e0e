package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

// setRun is one run inside a set file.
type setRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// setFile is what -repeat -out writes and -compare reads: every run of N
// full sets taken on one host from one commit.
type setFile struct {
	Host struct {
		NCPU      int    `json:"ncpu"`
		GOOS      string `json:"goos"`
		GOARCH    string `json:"goarch"`
		GoVersion string `json:"go_version"`
	} `json:"host"`
	Seconds float64  `json:"seconds"`
	Runs    []setRun `json:"runs"`
}

// runSets runs n full sets — every workload untraced, then traced — each
// run in a fresh process like the driver's, prints every run's numbers
// and then, per workload and metric, median, quartiles and spread. It
// reports whether every run was correct.
func runSets(out io.Writer, n int, seed int64, seconds float64, outPath string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	var sf setFile
	sf.Host.NCPU, sf.Host.GOOS, sf.Host.GOARCH, sf.Host.GoVersion = runtime.NumCPU(), runtime.GOOS, runtime.GOARCH, runtime.Version()
	sf.Seconds = seconds
	allCorrect := true
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			for trace := 0; trace <= 1; trace++ {
				s := seed + int64(i)
				cmd := exec.Command(self,
					"-workload", w.Name, "-seed", strconv.FormatInt(s, 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
					"-trace", strconv.Itoa(trace))
				cmd.Stderr = os.Stderr
				stdout, runErr := cmd.Output()
				lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
				run := setRun{Workload: w.Name, Seed: s, Trace: trace}
				if err := json.Unmarshal(lines[len(lines)-1], &run.result); err != nil {
					out.Write(stdout)
					return false, fmt.Errorf("%s seed %d trace %d: no result line (%v)", w.Name, s, trace, runErr)
				}
				for _, l := range lines[:len(lines)-1] {
					fmt.Fprintf(out, "%s\n", l)
				}
				if !run.Correct {
					allCorrect = false
					fmt.Fprintf(out, "  INCORRECT\n")
				}
				for _, name := range metricOrder(run.Metrics) {
					if w.bypasses(name) {
						fmt.Fprintf(out, "  %-34s %14s\n", name, "bypassed")
						continue
					}
					fmt.Fprintf(out, "  %-34s %14.4f %s\n", name, run.Metrics[name].Value, run.Metrics[name].Unit)
				}
				sf.Runs = append(sf.Runs, run)
			}
		}
	}
	if n > 1 {
		summarize(out, &sf)
	}
	if outPath != "" {
		b, err := json.MarshalIndent(&sf, "", " ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(outPath, append(b, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return allCorrect, nil
}

// metricOrder lists the metrics present in m in definition order.
func metricOrder(m map[string]metricValue) []string {
	var names []string
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if _, ok := m[d.Name]; ok {
				names = append(names, d.Name)
			}
		}
	}
	return names
}

// values collects one metric of one workload across a set's runs; none
// for a per-layer metric the workload bypasses (its 0 is not a measurement).
func (sf *setFile) values(workload, metric string) []float64 {
	if w := findWorkload(workload); w != nil && w.bypasses(metric) {
		return nil
	}
	var vs []float64
	for i := range sf.Runs {
		r := &sf.Runs[i]
		if r.Workload != workload {
			continue
		}
		if mv, ok := r.Metrics[metric]; ok {
			vs = append(vs, mv.Value)
		}
	}
	return vs
}

func summarize(out io.Writer, sf *setFile) {
	fmt.Fprintf(out, "\nsummary over %d runs per workload and trace mode (spread = (q3-q1)/median)\n", len(sf.values(workloads[0].Name, endToEnd[0].Name)))
	for _, w := range workloads {
		fmt.Fprintf(out, "\n%s\n  %-34s %-6s %14s %14s %14s %8s %7s\n", w.Name, "metric", "unit", "median", "q1", "q3", "spread", "bound")
		failed, attempted := 0, 0
		for i := range sf.Runs {
			if sf.Runs[i].Workload == w.Name {
				failed, attempted = failed+sf.Runs[i].Failed, attempted+sf.Runs[i].Attempted
			}
		}
		for _, list := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range list {
				vs := sf.values(w.Name, d.Name)
				if len(vs) == 0 {
					continue
				}
				q1, q3 := quartiles(vs)
				bound := ""
				if d.Bound > 0 {
					bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
				}
				fmt.Fprintf(out, "  %-34s %-6s %14.4f %14.4f %14.4f %7.1f%% %7s\n", d.Name, d.Unit, median(vs), q1, q3, 100*spread(vs), bound)
			}
		}
		fmt.Fprintf(out, "  failed/attempted %d/%d\n", failed, attempted)
	}
}

func loadSet(path string) (*setFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sf setFile
	if err := json.Unmarshal(b, &sf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sf, nil
}

// compareSets prints, per workload and metric, the medians of two sets
// and by how much the second is worse than the first. An end-to-end
// metric is judged against its bound: "worse" beyond it, "ok" within it,
// and "unresolved" when either set's own spread exceeds the bound, since
// then the runs cannot tell a regression of that size from noise.
// Per-layer metrics have no bound and are listed for orientation.
func compareSets(out io.Writer, pathA, pathB string) error {
	a, err := loadSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return err
	}
	if a.Host.NCPU != b.Host.NCPU || a.Seconds != b.Seconds {
		fmt.Fprintf(out, "warning: sets differ in host or run length (%d cpu %gs vs %d cpu %gs)\n", a.Host.NCPU, a.Seconds, b.Host.NCPU, b.Seconds)
	}
	for _, w := range workloads {
		fmt.Fprintf(out, "\n%s\n  %-34s %-6s %14s %14s %8s %8s %8s %7s  %s\n", w.Name, "metric", "unit", "median A", "median B", "worse", "spreadA", "spreadB", "bound", "verdict")
		for _, list := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range list {
				va, vb := a.values(w.Name, d.Name), b.values(w.Name, d.Name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				ma, mb := median(va), median(vb)
				worse := 0.0
				if ma != 0 {
					worse = (mb - ma) / ma
					if d.Better == "higher" {
						worse = -worse
					}
				}
				sa, sb := spread(va), spread(vb)
				bound, verdict := "", ""
				if d.Bound > 0 {
					bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
					switch {
					case sa > d.Bound || sb > d.Bound:
						verdict = "unresolved"
					case worse > d.Bound:
						verdict = "WORSE"
					default:
						verdict = "ok"
					}
				}
				fmt.Fprintf(out, "  %-34s %-6s %14.4f %14.4f %+7.1f%% %7.1f%% %7.1f%% %7s  %s\n", d.Name, d.Unit, ma, mb, 100*worse, 100*sa, 100*sb, bound, verdict)
			}
		}
	}
	return nil
}

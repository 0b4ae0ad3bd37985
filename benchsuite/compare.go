package main

// -compare BASE.json NEW.json: for each (workload, metric) present in
// both result files (records appended by -out), the medians, quartiles
// and win fraction over paired runs, and a verdict under the bounds in
// BENCHMARK.json.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the comparator reads.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// readRecords loads a result file: one record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// series is one metric's runs on one side, by seed in file order.
type series struct {
	seeds  []int64
	values []float64
}

func collect(recs []record) map[[2]string]*series {
	out := make(map[[2]string]*series)
	for _, r := range recs {
		for name, m := range r.Metrics {
			k := [2]string{r.Workload, name}
			if out[k] == nil {
				out[k] = &series{}
			}
			out[k].seeds = append(out[k].seeds, r.Seed)
			out[k].values = append(out[k].values, m.Value)
		}
	}
	return out
}

// pairs matches base and new runs by seed where the seeds agree, else by
// position.
func pairs(base, nw *series) [][2]float64 {
	bySeed := make(map[int64]float64)
	for i, s := range base.seeds {
		bySeed[s] = base.values[i]
	}
	var out [][2]float64
	for i, s := range nw.seeds {
		if b, ok := bySeed[s]; ok {
			out = append(out, [2]float64{b, nw.values[i]})
		}
	}
	if len(out) > 0 {
		return out
	}
	for i := 0; i < min(len(base.values), len(nw.values)); i++ {
		out = append(out, [2]float64{base.values[i], nw.values[i]})
	}
	return out
}

// verdict judges one metric. Improved needs the new side to win at least
// nine tenths of the pairs and the medians to differ by more than the
// base runs' interquartile range; worse is a median worse than the base
// by more than the bound; unresolved is a spread wider than the bound on
// either side, unless every new run beats every base run.
func verdict(base, nw []float64, prs [][2]float64, better string, bound *float64) (string, float64) {
	sign := 1.0 // positive means better
	if better == "lower" {
		sign = -1
	}
	wins := 0
	for _, p := range prs {
		if sign*(p[1]-p[0]) > 0 {
			wins++
		}
	}
	winFrac := float64(wins) / float64(max(len(prs), 1))
	bm, nm := median(base), median(nw)
	q1, q3 := quartiles(base)
	if bound == nil {
		return "no bound", winFrac
	}
	change := sign * (nm - bm) / math.Abs(bm)
	switch {
	case winFrac >= 0.9 && sign*(nm-bm) > q3-q1:
		return "improved", winFrac
	case change < -*bound:
		return "worse", winFrac
	case (spread(base) > *bound || spread(nw) > *bound) && !dominates(nw, base, sign):
		return "unresolved", winFrac
	default:
		return "no worse", winFrac
	}
}

// dominates reports whether every run of a beats every run of b.
func dominates(a, b []float64, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(x-y) <= 0 {
				return false
			}
		}
	}
	return true
}

func compareFiles(w io.Writer, specPath, basePath, newPath string) error {
	blob, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(blob, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	specs := make(map[string]metricSpec)
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		specs[m.Name] = m
	}
	baseRecs, err := readRecords(basePath)
	if err != nil {
		return err
	}
	newRecs, err := readRecords(newPath)
	if err != nil {
		return err
	}
	base, nw := collect(baseRecs), collect(newRecs)
	var keys [][2]string
	for k := range base {
		if _, ok := nw[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3]\tnew median [q1, q3]\tchange\twins\tverdict")
	for _, k := range keys {
		s, ok := specs[k[1]]
		if !ok {
			continue
		}
		b, n := base[k], nw[k]
		prs := pairs(b, n)
		v, winFrac := verdict(b.values, n.values, prs, s.Better, s.Bound)
		bq1, bq3 := quartiles(b.values)
		nq1, nq3 := quartiles(n.values)
		bm, nm := median(b.values), median(n.values)
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%d/%d\t%s\n",
			k[0], k[1], s.Unit, bm, bq1, bq3, nm, nq1, nq3, 100*(nm-bm)/math.Abs(bm),
			int(math.Round(winFrac*float64(len(prs)))), len(prs), v)
	}
	return tw.Flush()
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json the tools read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []gatedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type gatedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmark(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bm benchmarkFile
	if err := json.Unmarshal(data, &bm); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bm, nil
}

// summaryRow is the spread of one gated metric on one workload over a
// -repeat set.
type summaryRow struct {
	Workload    string    `json:"workload"`
	Metric      string    `json:"metric"`
	Unit        string    `json:"unit"`
	Values      []float64 `json:"values"`
	Median      float64   `json:"median"`
	Q1          float64   `json:"q1"`
	Q3          float64   `json:"q3"`
	IQRSpread   float64   `json:"iqr_over_median"`
	RangeSpread float64   `json:"range_over_median"`
	Bound       float64   `json:"bound"`
	Within      bool      `json:"within_bound"`
}

// collect groups the untraced runs' values by workload and metric.
func collect(runs []*runResult) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range runs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out
}

// summarizeRepeat computes every gated metric's spread per workload and
// fails if one exceeds its bound. The gated spread is the driver's — the
// interquartile distance over the median — once there are four or more
// values; below that quartiles mean little and (max − min) / median gates.
func summarizeRepeat(runs []*runResult, bm *benchmarkFile) ([]summaryRow, error) {
	values := collect(runs)
	var rows []summaryRow
	var over []string
	for _, wl := range workloads {
		for _, g := range bm.EndToEnd {
			vs := values[wl.name][g.Name]
			if len(vs) == 0 {
				continue
			}
			q1, q3 := quartiles(vs)
			row := summaryRow{Workload: wl.name, Metric: g.Name, Unit: g.Unit, Values: vs,
				Median: median(vs), Q1: q1, Q3: q3,
				IQRSpread: iqrSpread(vs), RangeSpread: rangeSpread(vs), Bound: g.Bound}
			gated := row.RangeSpread
			if len(vs) >= 4 {
				gated = row.IQRSpread
			}
			// setup_s is held to its bound between sets of runs, not
			// within one: its spread is reported, not gated.
			row.Within = gated <= g.Bound || g.Name == "setup_s"
			if !row.Within {
				over = append(over, fmt.Sprintf("%s/%s %.3f > %.2f", wl.name, g.Name, gated, g.Bound))
			}
			rows = append(rows, row)
		}
	}
	if len(over) > 0 {
		return rows, fmt.Errorf("spread over bound: %v", over)
	}
	return rows, nil
}

func printSummary(w io.Writer, rows []summaryRow) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tn\tmedian\tq1\tq3\tiqr/median\t(max-min)/median\tbound\twithin")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.4g\t%.4g\t%.4g\t%.3f\t%.3f\t%.2f\t%v\n",
			r.Workload, r.Metric, r.Unit, len(r.Values), r.Median, r.Q1, r.Q3, r.IQRSpread, r.RangeSpread, r.Bound, r.Within)
	}
	tw.Flush()
}

func loadDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != "voxload/1" {
		return nil, fmt.Errorf("%s: schema %q, want voxload/1", path, doc.Schema)
	}
	return &doc, nil
}

// verdict classifies b against a for one metric: "unresolved" when either
// side's own run-to-run spread is wider than the bound (the comparison
// cannot say "unchanged"), otherwise "worse" beyond the bound, "better"
// beyond the wider spread, or "same".
func verdict(a, b []float64, g gatedMetric) (ratio float64, spread float64, word string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, 0, "no base"
	}
	ratio = mb / ma
	if len(a) >= 2 {
		spread = iqrSpread(a)
	}
	if len(b) >= 2 {
		if s := iqrSpread(b); s > spread {
			spread = s
		}
	}
	change := ratio - 1 // > 0: b is larger
	if g.Better == "higher" {
		change = -change
	}
	switch {
	case spread > g.Bound:
		word = "unresolved"
	case change > g.Bound:
		word = "worse"
	case change < -spread && change < 0 && spread > 0:
		word = "better"
	default:
		word = "same"
	}
	return ratio, spread, word
}

// compareDocs prints one row per workload × gated metric for two result
// documents (single runs or -repeat sets): both medians, the ratio b/a with
// its base, the wider of the two spreads, and the verdict.
func compareDocs(root, pathA, pathB string) error {
	bm, err := loadBenchmark(root)
	if err != nil {
		return err
	}
	a, err := loadDocument(pathA)
	if err != nil {
		return err
	}
	b, err := loadDocument(pathB)
	if err != nil {
		return err
	}
	va, vb := collect(a.Runs), collect(b.Runs)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta (base)\tb\tb/a\tn a/b\tspread\tbound\tverdict")
	for _, wl := range workloads {
		for _, g := range bm.EndToEnd {
			xa, xb := va[wl.name][g.Name], vb[wl.name][g.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ratio, spread, word := verdict(xa, xb, g)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.3f\t%d/%d\t%.3f\t%.2f\t%s\n",
				wl.name, g.Name, g.Unit, median(xa), median(xb), ratio, len(xa), len(xb), spread, g.Bound, word)
		}
	}
	return tw.Flush()
}

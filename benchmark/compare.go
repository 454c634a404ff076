package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// absFloorS is the smallest change in a seconds metric that counts:
// set-up takes only tens of milliseconds on some workloads, where a
// relative bound alone would flag timer noise.
const absFloorS = 0.02

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the repository root when run there
// or from this directory.
func loadSpec() (benchSpec, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		b, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return benchSpec{}, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return benchSpec{}, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

func loadResult(path string) (resultFile, error) {
	var r resultFile
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &r)
	}
	if err != nil {
		return r, fmt.Errorf("result file %s: %w", path, err)
	}
	return r, nil
}

// verdict judges B against A for one metric. A metric is unresolved when
// either side's quartile spread exceeds the bound, since a difference
// inside the noise says nothing.
func verdict(a, b stat, bound float64, higherBetter bool) (float64, string) {
	if a.N == 0 || b.N == 0 || a.Median == 0 {
		return math.NaN(), "unresolved"
	}
	delta := (b.Median - a.Median) / a.Median
	worse := delta
	if higherBetter {
		worse = -delta
	}
	switch {
	case a.Unit == "s" && math.Abs(b.Median-a.Median) < absFloorS:
		return delta, "within"
	case a.spread() > bound || b.spread() > bound:
		return delta, "unresolved"
	case worse > bound:
		return delta, "worse"
	case worse < -bound:
		return delta, "better"
	}
	return delta, "within"
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: compare A.json B.json")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	a, aerr := loadResult(args[0])
	b, berr := loadResult(args[1])
	if err := errors.Join(aerr, berr); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	worse := false
	for _, name := range a.Order {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if _, ok := b.Workloads[name]; !ok {
			fmt.Fprintf(stdout, "%s: missing from %s\n", name, args[1])
			continue
		}
		ra, rb := wa.PerLayer[hostRef], wb.PerLayer[hostRef]
		fmt.Fprintf(stdout, "%s   host.ref_s A %.4g  B %.4g (%+.1f%%)\n", name, ra.Median, rb.Median, pct(ra.Median, rb.Median))
		fmt.Fprintf(stdout, "  %-13s %12s %-23s %12s %-23s %8s %6s  %s\n", "metric", "A median", "A min-max", "B median", "B min-max", "delta", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			d, v := verdict(sa, sb, m.Bound, m.Better == "higher")
			worse = worse || v == "worse"
			fmt.Fprintf(stdout, "  %-13s %12.5g %-23s %12.5g %-23s %+7.1f%% %5.0f%%  %s\n", m.Name,
				sa.Median, fmt.Sprintf("[%.5g-%.5g]", sa.Min, sa.Max),
				sb.Median, fmt.Sprintf("[%.5g-%.5g]", sb.Min, sb.Max), 100*d, 100*m.Bound, v)
		}
		v := "within"
		if wb.FailFrac > wa.FailFrac {
			v, worse = "worse", true
		}
		fmt.Fprintf(stdout, "  %-13s %12g %-23s %12g %-23s %8s %5.0f%%  %s\n", failFrac, wa.FailFrac, "", wb.FailFrac, "", "", 0.0, v)
		if wa.Fingerprint != wb.Fingerprint && a.Seed == b.Seed && a.Quick == b.Quick {
			fmt.Fprintf(stdout, "  simulated results differ: fingerprint %+v vs %+v\n", wa.Fingerprint, wb.Fingerprint)
		}
	}
	if worse {
		return 1
	}
	return 0
}

func pct(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return 100 * (b - a) / a
}

package workload

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"amoebasim/internal/sim"
)

func TestParseArrivalSpec(t *testing.T) {
	cases := []struct {
		in   string
		want ArrivalSpec
	}{
		{"", ArrivalSpec{Kind: Poisson}},
		{"poisson", ArrivalSpec{Kind: Poisson}},
		{"uniform", ArrivalSpec{Kind: UniformArrival}},
		{"fixed", ArrivalSpec{Kind: FixedArrival}},
		{"gamma:0.5", ArrivalSpec{Kind: GammaArrival, Shape: 0.5}},
		{"gamma:2", ArrivalSpec{Kind: GammaArrival, Shape: 2}},
		{"weibull:0.55", ArrivalSpec{Kind: WeibullArrival, Shape: 0.55}},
		{" weibull: 1.5 ", ArrivalSpec{Kind: WeibullArrival, Shape: 1.5}},
	}
	for _, c := range cases {
		got, err := ParseArrivalSpec(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseArrivalSpec(%q) = %+v, %v; want %+v", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"nosuch", "gamma:", "gamma:0", "gamma:-1", "gamma:x", "weibull:0", "poisson:2", "fixed:1"} {
		if _, err := ParseArrivalSpec(bad); err == nil {
			t.Errorf("ParseArrivalSpec(%q) accepted", bad)
		}
	}
	if s := (ArrivalSpec{Kind: GammaArrival, Shape: 0.5}).String(); s != "gamma:0.5" {
		t.Errorf("ArrivalSpec.String() = %q", s)
	}
	if s := (ArrivalSpec{Kind: Poisson}).String(); s != "poisson" {
		t.Errorf("ArrivalSpec.String() = %q", s)
	}
}

// Gamma and Weibull draws must be mean-preserving for every shape (the
// scale is derived from the configured mean) and reproducible per seed.
func TestHeavyTailedDrawMeans(t *testing.T) {
	const mean = time.Millisecond
	const n = 20000
	specs := []ArrivalSpec{
		{Kind: GammaArrival, Shape: 0.5},
		{Kind: GammaArrival, Shape: 3},
		{Kind: WeibullArrival, Shape: 0.55},
		{Kind: WeibullArrival, Shape: 2},
		{Kind: Poisson},
	}
	for _, s := range specs {
		r := sim.NewRand(99)
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(s.draw(r, mean))
		}
		got := sum / n / float64(mean)
		if math.Abs(got-1) > 0.06 {
			t.Errorf("%s: sample mean = %.3f×configured mean, want ≈1", s, got)
		}

		// Same seed, same stream.
		r1, r2 := sim.NewRand(5), sim.NewRand(5)
		for i := 0; i < 100; i++ {
			if a, b := s.draw(r1, mean), s.draw(r2, mean); a != b {
				t.Fatalf("%s: draw %d not reproducible: %v vs %v", s, i, a, b)
			}
		}
	}
}

// A shape k < 1 must actually be burstier than Poisson: higher coefficient
// of variation of the interarrival gaps.
func TestHeavyTailedShapesAreBurstier(t *testing.T) {
	const mean = time.Millisecond
	const n = 20000
	cv := func(s ArrivalSpec) float64 {
		r := sim.NewRand(7)
		var sum, sq float64
		for i := 0; i < n; i++ {
			v := float64(s.draw(r, mean))
			sum += v
			sq += v * v
		}
		m := sum / n
		return math.Sqrt(sq/n-m*m) / m
	}
	pois := cv(ArrivalSpec{Kind: Poisson})
	for _, s := range []ArrivalSpec{
		{Kind: GammaArrival, Shape: 0.4},
		{Kind: WeibullArrival, Shape: 0.55},
	} {
		if got := cv(s); got <= pois*1.1 {
			t.Errorf("%s: CV = %.2f, want clearly above Poisson's %.2f", s, got, pois)
		}
	}
}

func TestParseShape(t *testing.T) {
	cases := []struct {
		in   string
		want LoadShape
	}{
		{"steady", LoadShape{}},
		{"", LoadShape{}},
		{"bursty", LoadShape{Kind: BurstyShape}}, // regression: bare kind must not panic
		{"diurnal", LoadShape{Kind: DiurnalShape}},
		{"bursty:50ms", LoadShape{Kind: BurstyShape, Period: 50 * time.Millisecond}},
		{"bursty:50ms:0.1:20", LoadShape{Kind: BurstyShape, Period: 50 * time.Millisecond, Duty: 0.1, Amplitude: 20}},
		{"bursty::0.5", LoadShape{Kind: BurstyShape, Duty: 0.5}},
		{"diurnal:2s:0.5", LoadShape{Kind: DiurnalShape, Period: 2 * time.Second, Amplitude: 0.5}},
	}
	for _, c := range cases {
		got, err := ParseShape(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseShape(%q) = %+v, %v; want %+v", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"nosuch", "steady:1s", "bursty:0s", "bursty:1s:2", "bursty:1s:0.5:1", "bursty:1s:0.5:8:9", "diurnal:1s:2", "diurnal:x"} {
		if _, err := ParseShape(bad); err == nil {
			t.Errorf("ParseShape(%q) accepted", bad)
		}
	}
}

// The modulation must be mean-preserving: the intensity averaged over whole
// cycles is 1, so shaping never changes a class's cycle-average offered load.
func TestLoadShapeIntensityMeanPreserving(t *testing.T) {
	window := 400 * time.Millisecond
	for _, s := range []LoadShape{
		{Kind: BurstyShape},
		{Kind: BurstyShape, Duty: 0.5, Amplitude: 3},
		{Kind: DiurnalShape},
		{Kind: DiurnalShape, Amplitude: 0.3},
	} {
		p := s.period(window)
		const steps = 100000
		var sum float64
		for i := 0; i < steps; i++ {
			tm := time.Duration(float64(p) * float64(i) / steps)
			sum += s.intensity(tm, window)
		}
		if got := sum / steps; math.Abs(got-1) > 0.01 {
			t.Errorf("%s: cycle-average intensity = %.4f, want 1", s, got)
		}
		if s.intensity(0, window) <= 0 {
			t.Errorf("%s: non-positive intensity at t=0", s)
		}
	}
	// Steady is identically 1.
	if got := (LoadShape{}).intensity(123*time.Millisecond, window); got != 1 {
		t.Errorf("steady intensity = %g, want 1", got)
	}
	// Bursty actually modulates: on-phase above 1, off-phase below.
	b := LoadShape{Kind: BurstyShape}
	p := b.period(window)
	if on := b.intensity(0, window); on <= 1 {
		t.Errorf("bursty on-phase intensity = %g, want > 1", on)
	}
	if off := b.intensity(p/2, window); off >= 1 {
		t.Errorf("bursty off-phase intensity = %g, want < 1", off)
	}
}

func TestParseClasses(t *testing.T) {
	classes, err := ParseClasses("fe:clients=6,load=500,mix=rpc,dist=fixed:128,arrival=poisson,slo=4ms;" +
		"batch:clients=4,load=300,mix=group,dist=uniform:256-4096,arrival=weibull:0.55,think=2ms;" +
		"crawl:clients=4,load=200,mix=rpc=1+group=1,arrival=gamma:0.5,shape=bursty")
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 3 {
		t.Fatalf("got %d classes", len(classes))
	}
	fe := classes[0]
	if fe.Name != "fe" || fe.Clients != 6 || fe.OfferedLoad != 500 ||
		fe.Mix != MixRPC || fe.Sizes != (SizeDist{Kind: "fixed", Lo: 128}) ||
		fe.SLO != 4*time.Millisecond {
		t.Fatalf("fe = %+v", fe)
	}
	if classes[1].Arrival != (ArrivalSpec{Kind: WeibullArrival, Shape: 0.55}) ||
		classes[1].ThinkTime != 2*time.Millisecond {
		t.Fatalf("batch = %+v", classes[1])
	}
	if classes[2].Mix != (Mix{RPC: 1, Group: 1}) || classes[2].Shape.Kind != BurstyShape {
		t.Fatalf("crawl = %+v", classes[2])
	}

	if c, err := ParseClasses(""); err != nil || c != nil {
		t.Fatalf("empty spec = %v, %v", c, err)
	}
	for _, bad := range []string{
		";",
		"noname",
		":clients=2",
		"a:clients=2;a:clients=2", // duplicate name
		"a:clients=0",
		"a:load=-1",
		"a:mix=rpc=0", // zero-weight mix via class spec
		"a:nosuch=1",
		"a:clients",
		"a:slo=-1ms",
		"a:shape=bursty:1s:2",
	} {
		if _, err := ParseClasses(bad); err == nil {
			t.Errorf("ParseClasses(%q) accepted", bad)
		}
	}
}

func TestLoadClassesFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "classes.json")
	spec := `[
 {"name": "fe", "clients": 6, "load": 500, "mix": "rpc", "dist": "fixed:128", "slo": "4ms"},
 {"name": "batch", "clients": 4, "load": 300, "mix": "group", "arrival": "weibull:0.55"},
 {"name": "crawl", "clients": 4, "load": 200, "mix": "rpc=1,group=1", "arrival": "gamma:0.5", "shape": "bursty"}
]`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	classes, err := ParseClasses("@" + path)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 3 || classes[0].SLO != 4*time.Millisecond ||
		classes[1].Arrival.Kind != WeibullArrival || classes[2].Shape.Kind != BurstyShape {
		t.Fatalf("classes = %+v", classes)
	}
	// A file mix uses commas (JSON strings have no CLI comma conflict).
	if classes[2].Mix != (Mix{RPC: 1, Group: 1}) {
		t.Fatalf("crawl mix = %+v", classes[2].Mix)
	}
	if _, err := ParseClasses("@" + filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseClasses("@" + path); err == nil {
		t.Error("malformed file accepted")
	}
}

// TestClassFileValuesStayInTheirField: a class file's value is parsed as
// the value of its own key and nothing else. Spliced into the inline
// syntax, a name or value holding ';', ':' or ',' added a class or set
// another key.
func TestClassFileValuesStayInTheirField(t *testing.T) {
	dir := t.TempDir()
	load := func(spec string) ([]Class, error) {
		path := filepath.Join(dir, "classes.json")
		if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		return ParseClasses("@" + path)
	}
	classes, err := load(`[{"name": "a:clients=3;b", "clients": 2}]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 1 || classes[0].Name != "a:clients=3;b" || classes[0].Clients != 2 {
		t.Errorf("a name holding spec syntax loads as %+v, want one class of that name with 2 clients", classes)
	}
	for _, spec := range []string{
		`[{"name": "x", "dist": "fixed:128,clients=40"}]`,
		`[{"name": "x", "slo": "4ms;evil:clients=1"}]`,
		`[{"name": "x", "mix": "rpc;y:clients=9"}]`,
	} {
		if classes, err := load(spec); err == nil {
			t.Errorf("%s loads as %+v, want an error", spec, classes)
		}
	}
}

// TestCommittedScenarioLoads: the committed class file loads to the
// classes its inline spelling parses to.
func TestCommittedScenarioLoads(t *testing.T) {
	got, err := ParseClasses("@" + filepath.Join("..", "..", "SCENARIO_multiclass.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ParseClasses("interactive:clients=6,load=250,mix=rpc,dist=fixed:128,arrival=poisson,slo=4ms;" +
		"batch:clients=4,load=120,mix=group,dist=uniform:256-4096,arrival=weibull:0.55;" +
		"bursty:clients=4,load=80,mix=mixed,arrival=gamma:0.5,slo=20ms,shape=bursty")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SCENARIO_multiclass.json loads as\n%+v\nwant\n%+v", got, want)
	}
}

// Relative-share rescaling: with Config.OfferedLoad set, class loads are
// shares; without, they are absolute ops/sec.
func TestResolveClassesLoadSemantics(t *testing.T) {
	cfg := Config{
		Classes: []Class{
			{Name: "a", Clients: 2, OfferedLoad: 3},
			{Name: "b", Clients: 2, OfferedLoad: 1},
		},
		OfferedLoad: 800,
	}
	out := cfg.ResolvedClasses()
	if out[0].OfferedLoad != 600 || out[1].OfferedLoad != 200 {
		t.Fatalf("rescaled loads = %g, %g; want 600, 200", out[0].OfferedLoad, out[1].OfferedLoad)
	}

	cfg.OfferedLoad = 0
	out = cfg.ResolvedClasses()
	if out[0].OfferedLoad != 3 || out[1].OfferedLoad != 1 {
		t.Fatalf("absolute loads = %g, %g; want 3, 1", out[0].OfferedLoad, out[1].OfferedLoad)
	}

	// No class loads at all: equal-weight by population.
	cfg = Config{
		Classes: []Class{
			{Name: "a", Clients: 6},
			{Name: "b", Clients: 2},
		},
		OfferedLoad: 800,
	}
	out = cfg.ResolvedClasses()
	if out[0].OfferedLoad != 600 || out[1].OfferedLoad != 200 {
		t.Fatalf("population-weighted loads = %g, %g; want 600, 200", out[0].OfferedLoad, out[1].OfferedLoad)
	}

	// Inheritance of config-wide fields.
	cfg = Config{
		Classes:   []Class{{Name: "a", Clients: 2}},
		Mix:       MixGroup,
		Sizes:     SizeDist{Kind: "fixed", Lo: 64},
		ThinkTime: 5 * time.Millisecond,
		Shape:     LoadShape{Kind: DiurnalShape},
	}
	out = cfg.ResolvedClasses()
	if out[0].Mix != MixGroup || out[0].Sizes.Lo != 64 ||
		out[0].ThinkTime != 5*time.Millisecond || out[0].Shape.Kind != DiurnalShape {
		t.Fatalf("inherited class = %+v", out[0])
	}
}

// classSeed must not collide across adjacent bases and class indices (the
// per-class analogue of the sim.MixSeed regression).
func TestClassSeedNoCollisions(t *testing.T) {
	seen := make(map[uint64][2]uint64)
	for _, base := range []uint64{0, 1, 2, 7, 8, 42, 43} {
		for ci := 0; ci < 32; ci++ {
			s := classSeed(base, ci)
			if s == 0 {
				t.Fatalf("classSeed(%d, %d) = 0", base, ci)
			}
			if prev, dup := seen[s]; dup {
				t.Fatalf("classSeed collision: (%d,%d) and (%d,%d)", base, ci, prev[0], prev[1])
			}
			seen[s] = [2]uint64{base, uint64(ci)}
		}
	}
}

func TestClassesStringRoundTrip(t *testing.T) {
	in := "fe:clients=6,load=500,mix=rpc,dist=fixed:128,arrival=poisson,slo=4ms;" +
		"crawl:clients=4,load=200,mix=rpc=1+group=1,dist=uniform:256-4096,arrival=gamma:0.5,shape=bursty"
	classes, err := ParseClasses(in)
	if err != nil {
		t.Fatal(err)
	}
	s := ClassesString(classes)
	again, err := ParseClasses(s)
	if err != nil {
		t.Fatalf("ClassesString output %q does not re-parse: %v", s, err)
	}
	if ClassesString(again) != s {
		t.Fatalf("ClassesString not a fixed point:\n%s\n%s", s, ClassesString(again))
	}
	for _, want := range []string{"fe:", "crawl:", "slo=4ms", "shape=bursty", "arrival=gamma:0.5"} {
		if !strings.Contains(s, want) {
			t.Errorf("ClassesString missing %q: %s", want, s)
		}
	}
}

package instrument_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"defuse/internal/bench"
	"defuse/internal/deps"
	"defuse/internal/instrument"
	"defuse/internal/lang"
	"defuse/internal/pdg"
	"defuse/internal/progen"
)

// pinVariants are the two protected variants of Figure 10.
var pinVariants = []struct {
	tag string
	opt instrument.Options
}{
	{"R", instrument.Options{}},
	{"O", instrument.Options{Split: true, Inspector: true}},
}

// flowPin summarizes a program's flow dependences: whether they are exact,
// how many there are, and the first 16 hex digits of the SHA-256 of their
// printed relations.
func flowPin(t *testing.T, prog *lang.Program) string {
	t.Helper()
	model, err := pdg.Extract(prog)
	if err != nil {
		t.Fatal(err)
	}
	flow := deps.Analyze(model)
	h := sha256.New()
	for _, d := range flow.Deps {
		fmt.Fprintln(h, d)
	}
	return fmt.Sprintf("exact=%v deps=%d/%x", flow.Exact, len(flow.Deps), h.Sum(nil)[:8])
}

// pinLine is flowPin plus, per protected variant, the first 16 hex digits
// of the SHA-256 of the printed instrumented program and the report's
// static and dynamic plan counts.
func pinLine(t *testing.T, prog *lang.Program) string {
	t.Helper()
	line := flowPin(t, prog)
	for _, v := range pinVariants {
		res, err := instrument.Instrument(prog, v.opt)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(lang.Print(res.Prog)))
		pc := res.Report.PlanCounts()
		line += fmt.Sprintf(" %s=%x/s%d/d%d", v.tag, sum[:8],
			pc[instrument.PlanStatic], pc[instrument.PlanDynamic])
	}
	return line
}

// TestInstrumentPins locks the compiler's output on the generated programs
// of TestFuzzAffinePrograms (seeds 1000-1029) and TestFuzzIndirectPrograms
// (seeds 5000-5009), and the flow-dependence summary of every Table 2
// kernel. The polyhedral layer's exactness flag depends on constraint
// order, so any change to how constraints are normalized, deduplicated or
// eliminated that moves an answer shows up here.
func TestInstrumentPins(t *testing.T) {
	affine := progen.DefaultConfig()
	indirect := progen.DefaultConfig()
	indirect.WithIndirect = true
	var mismatches int
	check := func(name, got, want string) {
		if got != want {
			mismatches++
			t.Errorf("%s:\n got  %q\n want %q", name, got, want)
		}
	}
	for seed := int64(1000); seed < 1030; seed++ {
		gp := progen.Generate(rand.New(rand.NewSource(seed)), affine)
		check(fmt.Sprintf("seed %d", seed), pinLine(t, lang.MustParse(gp.Source)), programPins[seed])
	}
	for seed := int64(5000); seed < 5010; seed++ {
		gp := progen.Generate(rand.New(rand.NewSource(seed)), indirect)
		check(fmt.Sprintf("seed %d", seed), pinLine(t, lang.MustParse(gp.Source)), programPins[seed])
	}
	for _, b := range bench.Suite() {
		check(b.Name, flowPin(t, b.Program()), kernelPins[b.Name])
	}
	if mismatches > 0 {
		t.Logf("%d pins moved", mismatches)
	}
}

// programPins were taken from the compiler before the polyhedral layer
// moved to sorted-term expressions and structural constraint keys.
var programPins = map[int64]string{
	1000: "exact=true deps=12/6d012c86148f1318 R=191b81080948cf33/s3/d0 O=72143b534b2b3af1/s3/d0",
	1001: "exact=true deps=5/2d380794f01ed409 R=d900533d9bfcbbe6/s3/d0 O=4528a2a27204893a/s3/d0",
	1002: "exact=true deps=0/e3b0c44298fc1c14 R=dabaa127cc8baac7/s5/d0 O=fefe15d7f1915149/s5/d0",
	1003: "exact=true deps=9/7447311a6f18cd60 R=578e1b5f3951310c/s2/d0 O=7ad49ab1eadc872a/s2/d0",
	1004: "exact=true deps=15/6f756c8132076e3e R=9ca483da8145dfd2/s4/d0 O=2f32ffe0f0f15358/s4/d0",
	1005: "exact=true deps=8/cafc330d343139c5 R=9ec9b9baca744707/s2/d0 O=8239cb26859f2fde/s2/d0",
	1006: "exact=true deps=14/d9e1bf0c107f590b R=1cb024edb0bd4b17/s5/d0 O=4a37baead5397141/s5/d0",
	1007: "exact=true deps=6/712c9949fa672e6c R=a6fffdeaf1dffd8d/s5/d0 O=5a9ed7d5ad53b574/s5/d0",
	1008: "exact=true deps=10/81e227374fecc651 R=ad54c3624f1a2e28/s5/d0 O=3f5ce8f51b11b5b3/s5/d0",
	1009: "exact=true deps=0/e3b0c44298fc1c14 R=f99052f044c79d3d/s1/d0 O=f99052f044c79d3d/s1/d0",
	1010: "exact=true deps=18/606f036212faaa5c R=d800d39d986ab4b2/s4/d0 O=d4f9108c38f29881/s4/d0",
	1011: "exact=true deps=18/ed4a2fee044c7c1d R=3f53fc79a9e05258/s3/d0 O=bd1b880dbdff0679/s3/d0",
	1012: "exact=true deps=8/3ee59d11336bba2f R=d739feb0258b9000/s5/d0 O=f8953f40ba1d0a2b/s5/d0",
	1013: "exact=true deps=3/5a24ed9b7abb8afc R=dba86b255927029b/s2/d0 O=67445f349e931f05/s2/d0",
	1014: "exact=true deps=8/5f920dc59a340bff R=4612cc768b74ccb1/s3/d0 O=2a961b256fffa214/s3/d0",
	1015: "exact=true deps=8/143b1690da43cf7d R=09ad60f6893540e1/s2/d0 O=f78f89847390d5d0/s2/d0",
	1016: "exact=true deps=23/f33e25406ec66e3a R=a04e21fc593798bb/s3/d0 O=b3dd4ea3b06a379f/s3/d0",
	1017: "exact=true deps=0/e3b0c44298fc1c14 R=f449ae5f211d0f31/s3/d0 O=f449ae5f211d0f31/s3/d0",
	1018: "exact=true deps=1/a32a1998849370f3 R=b04203b4d32c4e4a/s2/d0 O=b898d3e368435950/s2/d0",
	1019: "exact=true deps=7/5f425d904e712c16 R=9b61ff3efd878aa3/s2/d0 O=1dcc7af71936fb8b/s2/d0",
	1020: "exact=true deps=1/f27adb082fc1b3ef R=915a952f646b7c57/s4/d0 O=d4c25898cbba6386/s4/d0",
	1021: "exact=true deps=7/931baa16ff9c46d7 R=639f08f4f24007a4/s5/d0 O=2648a6adc5c5f7aa/s5/d0",
	1022: "exact=true deps=3/6da8d8dfd046eab0 R=0359149769387a7a/s5/d0 O=f0927ea1908702a3/s5/d0",
	1023: "exact=true deps=4/830c53b5dd5b1635 R=f7914738d7bc1084/s5/d0 O=b6d2c1215f86ceee/s5/d0",
	1024: "exact=true deps=52/c5235ce1578f292e R=40423f31c4d4b532/s2/d0 O=4f35aae10ddb77c4/s2/d0",
	1025: "exact=true deps=16/05652756b1ad2fe5 R=f1d4824cd9674cf0/s1/d0 O=345a349528f0bb29/s1/d0",
	1026: "exact=true deps=2/e091c74a2ec53f9b R=10cca19ad678c40a/s5/d0 O=bd4f5b47eae69657/s5/d0",
	1027: "exact=true deps=6/4f5d4824051d4c15 R=6eaad9871aec9a20/s2/d0 O=fb19021f5dc6eed2/s2/d0",
	1028: "exact=true deps=35/2d3e394180e0b6ad R=92e3623ecf4ee442/s3/d0 O=3a537ff0b8f573b1/s3/d0",
	1029: "exact=true deps=0/e3b0c44298fc1c14 R=6e2cb19413295699/s2/d0 O=6e2cb19413295699/s2/d0",
	5000: "exact=true deps=7/e77f95040174577c R=9ab51a1ec932841d/s5/d1 O=1f8ba5d5d72a7bbb/s5/d1",
	5001: "exact=true deps=0/e3b0c44298fc1c14 R=9e799d3666bb8475/s5/d0 O=41a581f1c2f88391/s5/d0",
	5002: "exact=true deps=0/e3b0c44298fc1c14 R=26936005319f1138/s4/d0 O=26936005319f1138/s4/d0",
	5003: "exact=true deps=1/22b47a68a9b37a6c R=eb1898f5f882bdc1/s2/d0 O=eb1898f5f882bdc1/s2/d0",
	5004: "exact=true deps=25/e52a6161ce5450e6 R=678337b4439baccd/s2/d3 O=564c74036caede37/s2/d3",
	5005: "exact=true deps=4/c616e88437e58bc3 R=ddb025f25710b976/s5/d0 O=e8a7581fbeca657a/s5/d0",
	5006: "exact=true deps=1/bb9b7e5029118ec1 R=37f5ed447ae63a68/s3/d0 O=37f5ed447ae63a68/s3/d0",
	5007: "exact=true deps=5/62fac39d85b9daf0 R=057eccb6e9310e1d/s3/d1 O=dc651689f317eccd/s3/d1",
	5008: "exact=true deps=14/8a4af42126e8f191 R=33df214d122b0668/s3/d1 O=2e09caaf049ed25b/s3/d1",
	5009: "exact=true deps=42/614b7c85bd263328 R=f890afc0347f1d82/s2/d1 O=4a14282c3c82dd48/s2/d1",
}

var kernelPins = map[string]string{
	"ADI":      "exact=true deps=43/04e53f7a3dacf09c",
	"CG":       "exact=true deps=0/e3b0c44298fc1c14",
	"cholesky": "exact=true deps=1/ee85f9d5f68155ce",
	"dsyrk":    "exact=true deps=1/7dc96270a678540b",
	"jacobi1d": "exact=true deps=4/2b4ff8d3b9bf33ef",
	"LU":       "exact=true deps=5/15454aea180a6c54",
	"moldyn":   "exact=true deps=0/e3b0c44298fc1c14",
	"seidel":   "exact=true deps=9/8c9f4997e5193f57",
	"strsm":    "exact=true deps=3/896fde65a10ad61e",
	"trisolv":  "exact=true deps=5/034c1107b751eabc",
}

// TestInstrumentConcurrent instruments the ten Table 2 kernels from two
// goroutines at once and requires every printed program to equal the
// serial compile's. Under -race it checks that the compiler shares no
// mutable state between compiles.
func TestInstrumentConcurrent(t *testing.T) {
	opt := instrument.Options{Split: true, Inspector: true}
	compileAll := func() ([]string, error) {
		var out []string
		for _, b := range bench.Suite() {
			res, err := instrument.Instrument(b.Program(), opt)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", b.Name, err)
			}
			out = append(out, lang.Print(res.Prog))
		}
		return out, nil
	}
	want, err := compileAll()
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		out []string
		err error
	}
	results := make(chan result, 2)
	for g := 0; g < 2; g++ {
		go func() {
			out, err := compileAll()
			results <- result{out, err}
		}()
	}
	for g := 0; g < 2; g++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		for i, b := range bench.Suite() {
			if r.out[i] != want[i] {
				t.Errorf("%s: concurrent compile differs from the serial one", b.Name)
			}
		}
	}
}

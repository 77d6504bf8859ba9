package driver_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"hash/fnv"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"tracer/internal/bench"
	"tracer/internal/driver"
)

// The inline engine's CFG is the supergraph inlined in place. These digests
// were recorded from the CFG an earlier lowering built straight from the
// IR, and pin the inliner to it, node numbers and edge order included, so
// that no solver input changed with it. Each input's five digests cover:
// the node count, entry and exit, every edge in order and every node's
// out-edge list; the Calls, Accesses and Queries lists in order; and Atoms
// with AtomsByMethod. The inputs are the seven suite programs,
// examples/protocol, and every IR source literal of this package's, rhs's
// and ir's tests that inlines (a recursive one is rejected). A source is
// named by its file and a hash of its text.
var inlinedDigests = map[string][5]string{
	"examples/protocol/main.go@fab526d1":       {"7b529ede5ada3442", "2b6d60960b15097c", "126652bace64b416", "44ffbcf865896336", "9cef87787693c496"},
	"internal/driver/driver_test.go@97c0c10c":  {"1e917ae0a3bd8486", "7fb06a47e651ebe6", "d1ab0be70f1ed60a", "4bd7a111f1770d6e", "6e962674b6e512a6"},
	"internal/ir/fingerprint_test.go@04cb98b5": {"0d892b30f785e2ff", "cbf29ce484222325", "cbf29ce484222325", "cbf29ce484222325", "f452848f6e6a094d"},
	"internal/ir/fingerprint_test.go@0567a1ff": {"b4c165003c520abb", "66710f0034664333", "cbf29ce484222325", "30f9acdd87b66670", "fa0f078fa245ddf7"},
	"internal/ir/fingerprint_test.go@8fddf30d": {"b4c165003c520abb", "3dd804b12cdadcd5", "cbf29ce484222325", "30f9acdd87b66670", "fa0f078fa245ddf7"},
	"internal/ir/fingerprint_test.go@c8795f89": {"b4c165003c520abb", "61694c4af5f874c4", "cbf29ce484222325", "30f9acdd87b66670", "fa0f078fa245ddf7"},
	"internal/ir/fingerprint_test.go@ccc7b4fc": {"2a8715687a3b6578", "66710f0034664333", "cbf29ce484222325", "65e9366858446f3f", "dd6aa0d60112e207"},
	"internal/ir/lower_test.go@26dcd9f1":       {"6b197a1c9822e3ff", "5934e305740b7918", "cbf29ce484222325", "cbf29ce484222325", "e61dc7478e796641"},
	"internal/ir/lower_test.go@7b468001":       {"a592c9da22cc89e8", "cbf29ce484222325", "fd1f80ec947001a6", "fd63bf7738480ce0", "e5e3d676c4a56451"},
	"internal/ir/lower_test.go@8df52fec":       {"ade43ec9552f1726", "7ded5e9c68d8fdfe", "cbf29ce484222325", "cbf29ce484222325", "f72f3dee436a8889"},
	"internal/ir/lower_test.go@8f6aea39":       {"6016ffe86b151c93", "4859a76407dc5f52", "cbf29ce484222325", "cbf29ce484222325", "1d6c228d375ddd49"},
	"internal/ir/lower_test.go@9d448120":       {"a5f15e58ecf0ae3e", "6670d1f91e179131", "cbf29ce484222325", "cbf29ce484222325", "d4bf4e64c7dc08d1"},
	"internal/ir/lower_test.go@c20da697":       {"70b923a6b5ab210f", "cbf29ce484222325", "cbf29ce484222325", "cbf29ce484222325", "e5e3d676c4a56451"},
	"internal/ir/parse_test.go@51a28205":       {"939dd62edb1e020b", "cbf29ce484222325", "cbf29ce484222325", "cbf29ce484222325", "07fc1e07b4bd2c5f"},
	"internal/ir/parse_test.go@dc27a624":       {"0ada3fa4aff733e6", "96a04681b1c76c3d", "bfba602571e0d8f3", "09ac239aa663c051", "7630950375035ce1"},
	"internal/rhs/fromir_test.go@39884372":     {"5aaf6e5c02f5cd7b", "8e299f4dbc010b90", "780b87f087ac9c12", "cbf29ce484222325", "79ff54a41343f09b"},
	"suite/antlr":                              {"0bf9ad20c60a0b23", "fd02524628e5d406", "ff87718720cf6e2a", "cbf29ce484222325", "4bc4f8bc2b402c30"},
	"suite/avrora":                             {"725f1ba12118b2c3", "c239606fab6bcfb9", "1d1f36ff5877cfeb", "cbf29ce484222325", "ab9d0ce3af0ed9e6"},
	"suite/elevator":                           {"3370cf249e7eef6e", "47e23d106a303afd", "a01fa1a17b67cbcc", "cbf29ce484222325", "39958bc2f4845da5"},
	"suite/hedc":                               {"4aae03044c21d5a5", "2262d61297bc2bee", "4074aaa3e9fe444c", "cbf29ce484222325", "e1655f55b50df470"},
	"suite/lusearch":                           {"a586923bc8b1eaaf", "68457c821fc63d02", "21e7b0a45e89514c", "cbf29ce484222325", "6cce9d4bf6b10b92"},
	"suite/tsp":                                {"1a20b84beaa785eb", "f2101b5397c48a4c", "53302813913c825d", "cbf29ce484222325", "4744774104a74b15"},
	"suite/weblech":                            {"a50419703dc6b6df", "ca72228dd8ced0c4", "3453ae0416a39639", "cbf29ce484222325", "fe9584fe3a8f39f0"},
}

// queryDigests pins, per suite program and client, the parameter universe
// (ParamNames) and the generated queries (ID, Key and inlined nodes).
var queryDigests = map[string][2]string{
	"tsp/typestate":      {"733e627f62c8d760", "e84b019a82ab8a1b"},
	"tsp/escape":         {"fc1ad37b222181b5", "cf5f4ac3f98d1b57"},
	"tsp/nullness":       {"b907f33f0dc0d502", "c2990fe35cd3bf5b"},
	"elevator/typestate": {"c107a1c5133fbbac", "d5d1d4b0a29efe5c"},
	"elevator/escape":    {"aeef5a2d69de761a", "8705cfa4cdd53343"},
	"elevator/nullness":  {"472e028826cf3a7d", "e4f9cd3e659af455"},
	"hedc/typestate":     {"1b48d76046249cd3", "1f4db6c5f5b2a209"},
	"hedc/escape":        {"73e15efba03e47aa", "2c821a630297e29d"},
	"hedc/nullness":      {"19b4f1876f0ce2b9", "f8dd3eef7d8c047b"},
	"weblech/typestate":  {"6ac976129eeda7dc", "28bc2ede28370df3"},
	"weblech/escape":     {"4aa2c4cf3b807179", "e39fb984e6c17cab"},
	"weblech/nullness":   {"ea6acb08afdf5cc7", "b313ca07fe95379d"},
	"antlr/typestate":    {"b2f4e39632c094ed", "63ee6355ee3a4ff0"},
	"antlr/escape":       {"075ce822cc4b6b7c", "77304562f63c8501"},
	"antlr/nullness":     {"636ece6535ace28d", "1dea53c315a642e9"},
	"avrora/typestate":   {"d69b57052e22b067", "2f52072d7ff9a5b2"},
	"avrora/escape":      {"32217f6e2f231238", "b787990cc1a1bcae"},
	"avrora/nullness":    {"35520177c7879e09", "256edf321574a112"},
	"lusearch/typestate": {"6b6b460c4ad70add", "d45a4c565e10cbdd"},
	"lusearch/escape":    {"4304179f5d8d68af", "5745294e78c53ecb"},
	"lusearch/nullness":  {"06cc759d0bf35e5f", "00b65b38585c6d15"},
}

func fnvHex(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// digestSources collects the inputs: the suite programs, and every raw
// string literal declaring class Main in the listed Go files.
func digestSources(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, cfg := range bench.Suite() {
		out["suite/"+cfg.Name] = bench.Generate(cfg)
	}
	var files []string
	for _, dir := range []string{"internal/driver", "internal/rhs", "internal/ir"} {
		fs, err := filepath.Glob(filepath.Join("../..", dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, fs...)
	}
	files = append(files, filepath.Join("../..", "examples/protocol/main.go"))
	for _, f := range files {
		af, err := parser.ParseFile(token.NewFileSet(), f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(af, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING || !strings.HasPrefix(lit.Value, "`") {
				return true
			}
			src, err := strconv.Unquote(lit.Value)
			if err == nil && strings.Contains(src, "class Main") {
				out[filepath.ToSlash(strings.TrimPrefix(f, "../../"))+"@"+fnvHex(src)[:8]] = src
			}
			return true
		})
	}
	return out
}

// inlinedDigest renders a program's inlined view section by section.
func inlinedDigest(p *driver.Program) [5]string {
	var cfg, calls, accs, qs, atoms strings.Builder
	g := p.Inl.G
	fmt.Fprintf(&cfg, "%d %d %d\n", g.Nodes, g.Entry, g.Exit)
	for i, e := range g.Edges {
		a := "ε"
		if e.A != nil {
			a = e.A.String()
		}
		fmt.Fprintf(&cfg, "e%d %d %d %s\n", i, e.From, e.To, a)
	}
	for n, out := range g.Out {
		fmt.Fprintf(&cfg, "o%d %v\n", n, out)
	}
	for _, c := range p.Inl.Calls {
		r := p.SP.Calls[c.Rec]
		fmt.Fprintf(&calls, "%d %s %s %s\n", c.Node, r.Method.QualName(), r.Stmt.Position(), r.Recv)
	}
	for _, c := range p.Inl.Accesses {
		r := p.SP.Accesses[c.Rec]
		fmt.Fprintf(&accs, "%d %s %s %s %T\n", c.Node, r.Method.QualName(), r.Stmt.Position(), r.Base, r.Stmt)
	}
	for _, c := range p.Inl.Queries {
		r := p.SP.Queries[c.Rec]
		fmt.Fprintf(&qs, "%d %s %s %d %s %v\n", c.Node, r.Method.QualName(), r.Name, r.Kind, r.Var, r.States)
	}
	fmt.Fprintf(&atoms, "%d\n", p.Inl.Atoms)
	var ms []string
	for m, n := range p.Inl.AtomsByMethod {
		ms = append(ms, fmt.Sprintf("%s %d", m.QualName(), n))
	}
	sort.Strings(ms)
	atoms.WriteString(strings.Join(ms, "\n"))
	return [5]string{fnvHex(cfg.String()), fnvHex(calls.String()), fnvHex(accs.String()), fnvHex(qs.String()), fnvHex(atoms.String())}
}

// TestInlinedCFGPinned compares every input's inlined view with its
// recorded digests, and requires every recorded input to be found.
func TestInlinedCFGPinned(t *testing.T) {
	seen := map[string]bool{}
	for name, src := range digestSources(t) {
		want, ok := inlinedDigests[name]
		p, err := driver.Load(src)
		if err != nil {
			if ok {
				t.Errorf("%s: %v", name, err)
			}
			continue
		}
		if !ok {
			continue // a source added after the digests were recorded
		}
		seen[name] = true
		got := inlinedDigest(p)
		for i, part := range []string{"CFG", "Calls", "Accesses", "Queries", "Atoms"} {
			if got[i] != want[i] {
				t.Errorf("%s: %s digest %s, recorded %s", name, part, got[i], want[i])
			}
		}
	}
	for name := range inlinedDigests {
		if !seen[name] {
			t.Errorf("recorded input %s not found", name)
		}
	}
}

// TestGeneratedQueriesPinned compares every suite program's parameter
// universes and generated queries with their recorded digests.
func TestGeneratedQueriesPinned(t *testing.T) {
	for _, cfg := range bench.Suite() {
		p, err := driver.Load(bench.Generate(cfg))
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range driver.Clients() {
			var qs strings.Builder
			for i, q := range spec.Queries(p) {
				var nodes []int
				switch spec.Name {
				case "typestate":
					nodes = p.TypestateQueries()[i].Nodes
				case "escape":
					nodes = p.EscapeQueries()[i].Nodes
				case "nullness":
					nodes = p.NullnessQueries()[i].Nodes
				}
				fmt.Fprintf(&qs, "%s %s %v\n", q.ID, q.Key, nodes)
			}
			key := cfg.Name + "/" + spec.Name
			got := [2]string{fnvHex(strings.Join(spec.ParamNames(p), "\n")), fnvHex(qs.String())}
			if want := queryDigests[key]; got != want {
				t.Errorf("%s: ParamNames and queries digests %v, recorded %v", key, got, want)
			}
		}
	}
}

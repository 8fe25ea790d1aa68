package pastis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// benchmarkOnly are the declarations in internal/ that only the benchmark
// calls. The benchmark calls internals by name, so a product change may not
// rename or remove them; ROADMAP item 7's benchmark change moves them in one
// batch and empties this group.
var benchmarkOnly = map[string]string{
	"dmat.SpGEMM":         "benchmark/layers.go probes the distributed product; the sweep multiplies with dmat.SpGEMMPanel",
	"dmat.NewFromTriples": "benchmark/layers.go builds its A from triples by name; production builds every matrix from chunks with dmat.NewFromChunks",
	"fasta.SplitBytes":    "benchmark/layers.go probes the input split; the run driver cuts with fasta.Partition",
	"fasta.Bytes":         "benchmark/layers.go renders the records its parse probe reads; ranks are handed records",
	"fasta.ParseChunk":    "benchmark/layers.go times the chunked parse; fasta.Partition cuts records without one",
	"seqstore.Exchange":   "benchmark/layers.go times the exchange; core encodes with seqstore.Encode and launches with FromOwned",
	"parallel.For":        "benchmark/layers.go times the worker loop; production runs parallel.ForChunks",
	"mpi.RunTCPLocal":     "benchmark/workload.go and layers.go run tcp in one process; the mpi, dmat and core tests do too",
	"mpi.Comm.TryBarrier": "benchmark/layers.go times the barrier collective",
	"subkmer.ClearCache":  "benchmark/workload.go and layers.go call it between runs; the search keeps no cache",
	"index.Decode":        "benchmark/layers.go times the index decoder; production reads through index.Load and Open",
	"core.ExactSemiring":  "benchmark/layers.go builds the exact product's semiring by name",
}

// crossPackageTestOnly are the declarations that tests of other packages
// call, so moving one into a _test.go file would need an import cycle or a
// new package. Each entry names the test packages that use it.
var crossPackageTestOnly = map[string]string{
	"spmat.Equal":              "compares matrices in the dmat and core tests",
	"spmat.Counting":           "the counting semiring the dmat tests multiply with",
	"spmat.DCSC.At":            "reads one entry of a block in the core tests",
	"dmat.Mat.GatherTriples":   "gathers a distributed matrix whole in the core tests",
	"kmer.Encode":              "builds the search roots of the subkmer tests",
	"kmer.String":              "names k-mers in the subkmer and core tests",
	"kmer.BaseAt":              "reads one residue of a substitute in the subkmer tests",
	"scoring.Identity":         "the all-ties matrix the subkmer and align tests search and extend under",
	"scoring.Expense.Cheapest": "the cheapest substitution the subkmer tests bound distances with",
	"mpi.Clock.LiveBytes":      "the live-bytes ledger the dmat tests check",
}

// stdlibMethods are called by the standard library through its interfaces
// (error, fmt.Stringer, errors.Unwrap), never by a selector in this tree.
var stdlibMethods = map[string]bool{"Error": true, "Unwrap": true, "String": true}

// Every package-level func, method, const, var and type in internal/ has a
// caller outside _test.go files and benchmark/, or an entry in one of the
// two groups above. A declaration only tests call is test code in the
// product: it goes into the test that uses it, or away.
//
// References are read from the syntax alone: a bare name refers to its own
// package's declaration, a pkg.Name selector to the package its file
// imports under pkg, and any other selector counts as a use of every
// method of that name (interface dispatch included). A use from a
// declaration that is itself unused does not count.
func TestNoTestOnlyCode(t *testing.T) {
	tree := parseProduction(t)
	live := tree.live("")
	var unused, stale []string
	for key, at := range tree.decls {
		if !live[key] {
			unused = append(unused, at)
		}
	}
	for _, group := range allowlists {
		for key := range group {
			if _, ok := tree.decls[key]; !ok {
				stale = append(stale, key+": no such declaration")
			} else if tree.live(key)[key] {
				stale = append(stale, key+": production calls it")
			}
		}
	}
	sort.Strings(unused)
	sort.Strings(stale)
	for _, at := range unused {
		t.Errorf("internal/%s: no production caller; move it into the test that uses it, or delete it", at)
	}
	for _, s := range stale {
		t.Errorf("allowlist entry %s; drop the entry", s)
	}
}

var allowlists = []map[string]string{benchmarkOnly, crossPackageTestOnly}

// prodTree is the module's production code: the declarations checked, keyed
// "pkg.Name" or "pkg.Type.Method" and mapped to "file:line key", and the
// names each one's code uses.
type prodTree struct {
	decls map[string]string
	// refs and methods map a declaration's key to the keys and the method
	// names its code uses; key "" holds what code outside the checked
	// declarations uses (commands, examples, the root package, init).
	refs, methods map[string][]string
	// byMethod maps a method name to its declarations' keys.
	byMethod map[string][]string
}

// parseProduction parses every non-test file outside benchmark/,
// internal/testutil and testdata.
func parseProduction(t *testing.T) *prodTree {
	t.Helper()
	module := modulePath(t)
	tr := &prodTree{
		decls: map[string]string{}, byMethod: map[string][]string{},
		refs: map[string][]string{}, methods: map[string][]string{},
	}
	type file struct {
		dir string
		f   *ast.File
	}
	var files []file
	pkgName := map[string]string{} // import path → package name
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != "." && (strings.HasPrefix(name, ".") || name == "testdata" || p == "benchmark" || p == filepath.Join("internal", "testutil")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		files = append(files, file{dir, f})
		pkgName[importPath(module, dir)] = f.Name.Name
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, fl := range files {
		// A checked package's names are keyed by its path below internal/;
		// any other package's by its directory, which no checked key matches.
		pkg, checked := strings.CutPrefix(fl.dir, "internal/")
		imports := map[string]string{} // local name → the package's key prefix
		for _, spec := range fl.f.Imports {
			ip, _ := strconv.Unquote(spec.Path.Value)
			name, ok := pkgName[ip]
			if !ok {
				continue // outside the module
			}
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = strings.TrimPrefix(ip, module+"/internal/")
		}
		for _, decl := range fl.f.Decls {
			for _, d := range declsOf(decl) {
				owner := ""
				if checked && d.name != "_" && !(d.recv == "" && d.name == "init") {
					owner = pkg + "." + d.name
					if d.recv != "" {
						owner = pkg + "." + d.recv + "." + d.name
						tr.byMethod[d.name] = append(tr.byMethod[d.name], owner)
					}
					pos := fset.Position(d.pos)
					tr.decls[owner] = strings.TrimPrefix(filepath.ToSlash(pos.Filename), "internal/") + ":" + strconv.Itoa(pos.Line) + " " + owner
				}
				refs, methods := namesIn(d.body, pkg, imports)
				tr.refs[owner] = append(tr.refs[owner], refs...)
				tr.methods[owner] = append(tr.methods[owner], methods...)
			}
		}
	}
	return tr
}

// live is the set of declarations reachable from code outside the checked
// declarations, from the stdlib interface methods and from every allowlist
// entry but without.
func (tr *prodTree) live(without string) map[string]bool {
	live := map[string]bool{}
	work := []string{""}
	use := func(key string) {
		if _, ok := tr.decls[key]; ok && !live[key] {
			live[key] = true
			work = append(work, key)
		}
	}
	useMethod := func(name string) {
		for _, key := range tr.byMethod[name] {
			use(key)
		}
	}
	for m := range stdlibMethods {
		useMethod(m)
	}
	for _, group := range allowlists {
		for key := range group {
			if key != without {
				use(key)
			}
		}
	}
	for len(work) > 0 {
		key := work[len(work)-1]
		work = work[:len(work)-1]
		for _, r := range tr.refs[key] {
			if r != key {
				use(r)
			}
		}
		for _, m := range tr.methods[key] {
			useMethod(m)
		}
	}
	return live
}

// decl is one package-level name and the syntax that belongs to it.
type decl struct {
	name, recv string
	pos        token.Pos
	body       []ast.Node
}

// declsOf splits a top-level declaration into its names. The names
// themselves are not in body, so a declaration does not use itself.
func declsOf(d ast.Decl) []decl {
	switch d := d.(type) {
	case *ast.FuncDecl:
		out := decl{name: d.Name.Name, pos: d.Name.Pos(), body: []ast.Node{d.Type}}
		if d.Body != nil {
			out.body = append(out.body, d.Body)
		}
		if d.Recv != nil {
			out.body = append(out.body, d.Recv)
			out.recv = recvType(d.Recv.List[0].Type)
		}
		return []decl{out}
	case *ast.GenDecl:
		var out []decl
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				body := []ast.Node{s.Type}
				if s.TypeParams != nil {
					body = append(body, s.TypeParams)
				}
				out = append(out, decl{name: s.Name.Name, pos: s.Name.Pos(), body: body})
			case *ast.ValueSpec:
				var body []ast.Node
				if s.Type != nil {
					body = append(body, s.Type)
				}
				for _, v := range s.Values {
					body = append(body, v)
				}
				for _, n := range s.Names {
					out = append(out, decl{name: n.Name, pos: n.Pos(), body: body})
				}
			}
		}
		return out
	}
	return nil
}

// recvType is a receiver's type name: T for T, *T, T[P] and *T[P].
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// namesIn lists the declarations ("pkg.Name") and the method names the
// nodes refer to. Field and parameter names are declarations, not uses.
func namesIn(nodes []ast.Node, self string, imports map[string]string) (refs, methods []string) {
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Field:
			ast.Inspect(x.Type, visit)
			return false
		case *ast.CompositeLit:
			// A key of a map or array literal is a value; in a literal of a
			// named or elided type a bare key is taken as a field name.
			_, isMap := x.Type.(*ast.MapType)
			_, isArray := x.Type.(*ast.ArrayType)
			if x.Type != nil {
				ast.Inspect(x.Type, visit)
			}
			for _, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if _, bare := kv.Key.(*ast.Ident); !bare || isMap || isArray {
						ast.Inspect(kv.Key, visit)
					}
					elt = kv.Value
				}
				ast.Inspect(elt, visit)
			}
			return false
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if pkg, ok := imports[id.Name]; ok {
					if pkg != "" {
						refs = append(refs, pkg+"."+x.Sel.Name)
					}
					return false
				}
			}
			methods = append(methods, x.Sel.Name)
			ast.Inspect(x.X, visit)
			return false
		case *ast.Ident:
			refs = append(refs, self+"."+x.Name)
		}
		return true
	}
	for _, n := range nodes {
		ast.Inspect(n, visit)
	}
	return refs, methods
}

func modulePath(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(m)
		}
	}
	t.Fatal("go.mod names no module")
	return ""
}

func importPath(module, dir string) string {
	if dir == "." {
		return module
	}
	return path.Join(module, dir)
}

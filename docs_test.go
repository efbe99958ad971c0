package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// docFiles are the documents whose code references are held to the
// tree.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "bench/README.md", ".claude/skills/verify/SKILL.md"}

// docPathPrefixes are the repository directories a backticked path
// must start with to be checked.
var docPathPrefixes = []string{"internal/", "cmd/", "bench/", "examples/"}

var (
	makeRefRE   = regexp.MustCompile(`(?:^|[\s(;&|])make\s+([A-Za-z0-9_.-]+)`)
	testRefRE   = regexp.MustCompile(`(?:^|[^.\w])((?:Test|Benchmark|Fuzz|Example)[A-Z0-9_]\w*)`)
	testFuncRE  = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)
	makeRuleRE  = regexp.MustCompile(`(?m)^([A-Za-z0-9_.-]+)\s*:([^=]|$)`)
	makeSmokeRE = regexp.MustCompile(`(?m)^SMOKES\s*=(.*)$`)
	lineSuffix  = regexp.MustCompile(`:\d+$`)
	goRunRE     = regexp.MustCompile(`go run \./cmd/([\w-]+)([^\\#&|]*)`)
	flagRefRE   = regexp.MustCompile(`(?:^|[\s\[])--?([A-Za-z][\w.-]*)`)
	flagDefRE   = regexp.MustCompile(`flag\.[A-Z]\w*\((?:[^,()"]+,\s*)?"([^"]+)"`)
	proseFlagRE = regexp.MustCompile(`^--?([A-Za-z][\w.-]*)`)
)

// TestDocReferences keeps the docFiles from going stale: in their code
// spans and code blocks, every `make TARGET` must name a Makefile
// target, every path under internal/, cmd/, bench/ or examples/ must
// exist, every Test*, Benchmark*, Fuzz* or Example* name must be a
// function in some _test.go file, and every -name written after
// `go run ./cmd/X` (up to a comment, pipe or line continuation) must
// be a flag cmd/X defines. In prose, a code span that starts with a
// command's name (`crawl`, `capd -ingest`, `cmd/fleetd`) names that
// command, and the -names after it must be its flags; a code span
// that starts with a -name must be a flag of some command the same
// paragraph names.
func TestDocReferences(t *testing.T) {
	targets := makeTargets(t)
	funcs := testFuncs(t)
	flags := map[string]map[string]bool{}
	cmdFlagSet := func(cmd string) map[string]bool {
		if flags[cmd] == nil {
			flags[cmd] = cmdFlags(t, cmd)
		}
		return flags[cmd]
	}
	for _, doc := range docFiles {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		prose, fenced := codeSpans(string(b))
		spans := fenced
		for _, para := range prose {
			spans = append(spans, para...)
		}
		for _, span := range spans {
			for _, m := range makeRefRE.FindAllStringSubmatch(span, -1) {
				if !targets[m[1]] {
					t.Errorf("%s: `%s` names no Makefile target", doc, "make "+m[1])
				}
			}
			for _, p := range spanPaths(span) {
				if !pathExists(p) {
					t.Errorf("%s: %s does not exist", doc, p)
				}
			}
			for _, m := range testRefRE.FindAllStringSubmatch(span, -1) {
				if !funcs[m[1]] {
					t.Errorf("%s: %s is no function in any _test.go file", doc, m[1])
				}
			}
			for _, m := range goRunRE.FindAllStringSubmatch(span, -1) {
				cmd := m[1]
				for _, f := range flagRefRE.FindAllStringSubmatch(m[2], -1) {
					if !cmdFlagSet(cmd)[f[1]] {
						t.Errorf("%s: `go run ./cmd/%s` has no flag -%s", doc, cmd, f[1])
					}
				}
			}
		}
		for _, para := range prose {
			var named []string
			for _, span := range para {
				cmd, rest := spanCommand(span)
				if cmd == "" {
					continue
				}
				named = append(named, cmd)
				for _, f := range flagRefRE.FindAllStringSubmatch(rest, -1) {
					if !cmdFlagSet(cmd)[f[1]] {
						t.Errorf("%s: `%s`: %s has no flag -%s", doc, span, cmd, f[1])
					}
				}
			}
			if len(named) == 0 {
				continue
			}
		spans:
			for _, span := range para {
				m := proseFlagRE.FindStringSubmatch(span)
				if m == nil {
					continue
				}
				for _, cmd := range named {
					if cmdFlagSet(cmd)[m[1]] {
						continue spans
					}
				}
				t.Errorf("%s: `%s` is a flag of none of the commands its paragraph names (%s)",
					doc, span, strings.Join(named, ", "))
			}
		}
	}
}

// spanCommand reports the command a code span starts with — its first
// word is NAME, cmd/NAME or ./cmd/NAME for a directory cmd/NAME — and
// the rest of the span.
func spanCommand(span string) (cmd, rest string) {
	first, rest, _ := strings.Cut(strings.TrimSpace(span), " ")
	name := strings.TrimSuffix(strings.TrimPrefix(strings.TrimPrefix(first, "./"), "cmd/"), "/")
	if name == "" || strings.ContainsAny(name, "/.") {
		return "", ""
	}
	if st, err := os.Stat(filepath.Join("cmd", name)); err != nil || !st.IsDir() {
		return "", ""
	}
	return name, rest
}

// cmdFlags returns the flag names cmd/NAME's non-test files define
// with flag.<Type>("name", …) or flag.<Type>Var(&v, "name", …).
func cmdFlags(t *testing.T, name string) map[string]bool {
	files, err := filepath.Glob(filepath.Join("cmd", name, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("cmd/%s: no Go files (%v)", name, err)
	}
	flags := map[string]bool{}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range flagDefRE.FindAllStringSubmatch(string(b), -1) {
			flags[m[1]] = true
		}
	}
	return flags
}

// TestNoOrphanPackages: every internal/ package is imported by some
// package outside it — a command, the root facade or another internal
// package — counting only non-test files and not examples/, so code
// that no binary can reach does not linger as if it were part of the
// reproduction.
func TestNoOrphanPackages(t *testing.T) {
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	modPath := strings.TrimSpace(strings.TrimPrefix(strings.SplitN(string(mod), "\n", 2)[0], "module"))
	pkgs := map[string]bool{}     // internal/ directories holding non-test Go files
	imported := map[string]bool{} // module directories imported from another directory
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "examples" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // another module, such as bench/
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") {
			pkgs[dir] = true
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if rel, ok := strings.CutPrefix(p, modPath+"/"); ok && rel != dir {
				imported[rel] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no internal/ packages found")
	}
	var orphans []string
	for p := range pkgs {
		if !imported[p] {
			orphans = append(orphans, p)
		}
	}
	sort.Strings(orphans)
	for _, p := range orphans {
		t.Errorf("%s: no non-test Go file outside it imports it (outside examples/)", p)
	}
}

// makeTargets returns the Makefile's rule names and $(SMOKES) members.
func makeTargets(t *testing.T) map[string]bool {
	b, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeRuleRE.FindAllStringSubmatch(string(b), -1) {
		targets[m[1]] = true
	}
	m := makeSmokeRE.FindStringSubmatch(string(b))
	if m == nil {
		t.Fatal("Makefile: no SMOKES list")
	}
	for _, s := range strings.Fields(m[1]) {
		targets[s] = true
	}
	return targets
}

// testFuncs returns the names of the Test*, Benchmark*, Fuzz* and
// Example* functions declared in the repository's _test.go files.
func testFuncs(t *testing.T) map[string]bool {
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncRE.FindAllStringSubmatch(string(b), -1) {
			funcs[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// codeSpans returns a markdown document's inline code spans, one list
// per prose paragraph (paired within the paragraph, line breaks read
// as spaces), and the lines of its fenced code blocks.
func codeSpans(doc string) (prose [][]string, fenced []string) {
	var para []string
	flush := func() {
		text := strings.Join(para, " ")
		para = para[:0]
		parts := strings.Split(text, "`")
		var spans []string
		for i := 1; i+1 < len(parts); i += 2 {
			spans = append(spans, parts[i])
		}
		if len(spans) > 0 {
			prose = append(prose, spans)
		}
	}
	inFence := false
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			flush()
			inFence = !inFence
		case inFence:
			fenced = append(fenced, line)
		case strings.TrimSpace(line) == "":
			flush()
		default:
			para = append(para, line)
		}
	}
	flush()
	return prose, fenced
}

// spanPaths returns the repository paths a code span names, trimmed to
// what can be checked: a placeholder or glob cuts the path back to its
// directory, and a ":LINE" suffix or "/..." package pattern is dropped.
func spanPaths(span string) []string {
	var paths []string
	fields := strings.FieldsFunc(span, func(r rune) bool {
		return strings.ContainsRune(" \t'\"(),;=[]", r)
	})
	for _, f := range fields {
		f = strings.TrimPrefix(f, "./")
		if !hasDocPathPrefix(f) {
			continue
		}
		if i := strings.IndexAny(f, "<*{$?"); i >= 0 {
			f = f[:strings.LastIndex(f[:i], "/")+1]
		}
		f = strings.TrimSuffix(f, "/...")
		f = lineSuffix.ReplaceAllString(strings.TrimRight(f, ".:"), "")
		paths = append(paths, f)
	}
	return paths
}

func hasDocPathPrefix(p string) bool {
	for _, prefix := range docPathPrefixes {
		if strings.HasPrefix(p, prefix) {
			return true
		}
	}
	return false
}

// pathExists reports whether p is a file or directory of the
// repository, or a package-qualified Go name ("internal/stats.Median")
// whose package directory is.
func pathExists(p string) bool {
	if _, err := os.Stat(p); err == nil {
		return true
	}
	dot := strings.LastIndex(p, ".")
	if dot < strings.LastIndex(p, "/") {
		return false
	}
	st, err := os.Stat(p[:dot])
	return err == nil && st.IsDir()
}

// TestConfigFieldsSet: every exported field of an exported *Config
// struct under internal/ is set somewhere outside its declaring
// package's non-test files — by a key in a composite literal, an
// unkeyed positional literal, an assignment to the field or taking its
// address (flag.IntVar(&cfg.Workers, …)). Tests, cmd/, bench/ and
// examples/ all count. A field nothing sets has one value in use and
// is a constant; keeping it an option doubles the configurations the
// tests must cover for nothing. Fields are matched by their owning
// type, resolved syntactically (declared and inferred variable types,
// struct field types, function results), not by name: two types'
// same-named fields are different options.
func TestConfigFieldsSet(t *testing.T) {
	c := parseCensus(t)
	type target struct{ typ, field string }
	var targets []target
	for _, typ := range c.configTypes {
		for _, f := range c.structs[typ].order {
			if token.IsExported(f) {
				targets = append(targets, target{typ, f})
			}
		}
	}
	if len(targets) == 0 {
		t.Fatal("no *Config structs found under internal/")
	}
	for _, f := range c.files {
		c.scanSets(f)
	}
	for _, tg := range targets {
		if !c.built[tg.typ] {
			continue // a value the package hands out, such as crawler.ToplistConfig
		}
		if !c.set[tg.typ+"."+tg.field] {
			t.Errorf("%s.%s: set nowhere outside its package's non-test files; make it a constant", tg.typ, tg.field)
		}
	}
}

// census is the parsed repository (both modules) with just enough
// syntactic type information to tell which struct a field belongs to.
// Type keys are "dir.Name", dir relative to the repository root.
type census struct {
	files       []*censusFile
	structs     map[string]*censusStruct
	funcs       map[string]string // "dir.Func" or "dir.Recv.Method" → result type key
	configTypes []string          // exported *Config structs of non-test internal/ files
	set         map[string]bool   // "typeKey.Field" set by a counting file
	built       map[string]bool   // struct types a counting file writes a literal of or sets a field of
}

type censusStruct struct {
	dir    string
	order  []string          // field names in declaration order
	fields map[string]string // field name → type key ("" when not a known struct)
	embeds []string          // embedded fields, for promotion
}

type censusFile struct {
	f       *ast.File
	dir     string
	test    bool
	imports map[string]string // local name → repository dir
}

func parseCensus(t *testing.T) *census {
	c := &census{structs: map[string]*censusStruct{}, funcs: map[string]string{},
		set: map[string]bool{}, built: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		cf := &censusFile{f: f, dir: filepath.ToSlash(filepath.Dir(path)),
			test: strings.HasSuffix(path, "_test.go"), imports: map[string]string{}}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			rel, ok := strings.CutPrefix(p, "repro/")
			if !ok {
				continue
			}
			name := rel[strings.LastIndex(rel, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			cf.imports[name] = rel
		}
		c.files = append(c.files, cf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cf := range c.files {
		for _, decl := range cf.f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					s := &censusStruct{dir: cf.dir, fields: map[string]string{}}
					for _, fl := range st.Fields.List {
						typ := cf.typeKey(fl.Type)
						if len(fl.Names) == 0 {
							name := embeddedName(fl.Type)
							s.order = append(s.order, name)
							s.fields[name] = typ
							s.embeds = append(s.embeds, name)
						}
						for _, n := range fl.Names {
							s.order = append(s.order, n.Name)
							s.fields[n.Name] = typ
						}
					}
					key := cf.dir + "." + ts.Name.Name
					c.structs[key] = s
					name := ts.Name.Name
					if !cf.test && strings.HasPrefix(cf.dir, "internal/") && token.IsExported(name) &&
						(name == "Config" || strings.HasSuffix(name, "Config")) {
						c.configTypes = append(c.configTypes, key)
					}
				}
			case *ast.FuncDecl:
				if d.Type.Results == nil || len(d.Type.Results.List) == 0 {
					continue
				}
				res := cf.typeKey(d.Type.Results.List[0].Type)
				if d.Recv != nil && len(d.Recv.List) == 1 {
					c.funcs[cf.typeKey(d.Recv.List[0].Type)+"."+d.Name.Name] = res
				} else {
					c.funcs[cf.dir+"."+d.Name.Name] = res
				}
			}
		}
	}
	sort.Strings(c.configTypes)
	return c
}

func embeddedName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return embeddedName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// typeKey resolves a type expression written in cf to "dir.Name",
// dropping pointers; "" for anything else.
func (cf *censusFile) typeKey(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return cf.typeKey(x.X)
	case *ast.ParenExpr:
		return cf.typeKey(x.X)
	case *ast.Ident:
		if !isPredeclared(x.Name) {
			return cf.dir + "." + x.Name
		}
	case *ast.SelectorExpr:
		if pkg, ok := x.X.(*ast.Ident); ok && cf.imports[pkg.Name] != "" {
			return cf.imports[pkg.Name] + "." + x.Sel.Name
		}
	}
	return ""
}

func isPredeclared(name string) bool {
	switch name {
	case "bool", "byte", "rune", "string", "error", "any", "int", "int8", "int16", "int32", "int64",
		"uint", "uint8", "uint16", "uint32", "uint64", "uintptr", "float32", "float64",
		"complex64", "complex128":
		return true
	}
	return false
}

// field returns the type key of owner's field name, looking through
// embedded structs, and whether owner (or an embedded struct) has it;
// found is the struct that declares it.
func (c *census) field(owner, name string) (typ, found string, ok bool) {
	s := c.structs[owner]
	if s == nil {
		return "", "", false
	}
	if typ, ok := s.fields[name]; ok {
		return typ, owner, true
	}
	for _, e := range s.embeds {
		if typ, found, ok := c.field(s.fields[e], name); ok {
			return typ, found, true
		}
	}
	return "", "", false
}

// scanSets records every field f sets on a struct of another package,
// or of its own package when f is a test file.
func (c *census) scanSets(f *censusFile) {
	counts := func(typ string) bool { return f.test || c.structs[typ].dir != f.dir }
	mark := func(owner, name string) {
		if _, found, ok := c.field(owner, name); ok && counts(found) {
			c.set[found+"."+name] = true
			c.built[found] = true
		}
	}
	var lit func(cl *ast.CompositeLit, typ string, elem ast.Expr)
	lit = func(cl *ast.CompositeLit, typ string, elem ast.Expr) {
		// elem is the element type elided literals inside cl take.
		if s := c.structs[typ]; s != nil {
			if counts(typ) {
				c.built[typ] = true
			}
			for i, e := range cl.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if k, ok := kv.Key.(*ast.Ident); ok {
						mark(typ, k.Name)
					}
				} else if i < len(s.order) {
					mark(typ, s.order[i])
				}
			}
			return
		}
		for _, e := range cl.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				e = kv.Value
			}
			if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
				e = u.X
			}
			if inner, ok := e.(*ast.CompositeLit); ok && inner.Type == nil && elem != nil {
				lit(inner, f.typeKey(elem), elemType(elem))
			}
		}
	}
	scope := map[string]string{}
	var typeOf func(e ast.Expr) string
	typeOf = func(e ast.Expr) string {
		switch x := e.(type) {
		case *ast.Ident:
			return scope[x.Name]
		case *ast.ParenExpr:
			return typeOf(x.X)
		case *ast.StarExpr:
			return typeOf(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				return typeOf(x.X)
			}
		case *ast.CompositeLit:
			return f.typeKey(x.Type)
		case *ast.SelectorExpr:
			if pkg, ok := x.X.(*ast.Ident); ok && scope[pkg.Name] == "" && f.imports[pkg.Name] != "" {
				return ""
			}
			typ, _, _ := c.field(typeOf(x.X), x.Sel.Name)
			return typ
		case *ast.CallExpr:
			switch fn := x.Fun.(type) {
			case *ast.Ident:
				if fn.Name == "new" && len(x.Args) == 1 {
					return f.typeKey(x.Args[0])
				}
				return c.funcs[f.dir+"."+fn.Name]
			case *ast.SelectorExpr:
				if pkg, ok := fn.X.(*ast.Ident); ok && scope[pkg.Name] == "" && f.imports[pkg.Name] != "" {
					return c.funcs[f.imports[pkg.Name]+"."+fn.Sel.Name]
				}
				return c.funcs[typeOf(fn.X)+"."+fn.Sel.Name]
			}
		}
		return ""
	}
	declare := func(fields *ast.FieldList) {
		if fields == nil {
			return
		}
		for _, fl := range fields.List {
			for _, n := range fl.Names {
				scope[n.Name] = f.typeKey(fl.Type)
			}
		}
	}
	setAt := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			mark(typeOf(sel.X), sel.Sel.Name)
		}
	}
	ast.Inspect(f.f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			scope = map[string]string{}
			if x.Recv != nil {
				declare(x.Recv)
			}
			declare(x.Type.Params)
			declare(x.Type.Results)
		case *ast.FuncLit:
			declare(x.Type.Params)
			declare(x.Type.Results)
		case *ast.ValueSpec:
			for i, n := range x.Names {
				if x.Type != nil {
					scope[n.Name] = f.typeKey(x.Type)
				} else if len(x.Values) == len(x.Names) {
					scope[n.Name] = typeOf(x.Values[i])
				}
			}
		case *ast.AssignStmt:
			for i, l := range x.Lhs {
				if id, ok := l.(*ast.Ident); ok && x.Tok == token.DEFINE && len(x.Rhs) == len(x.Lhs) {
					scope[id.Name] = typeOf(x.Rhs[i])
				}
				setAt(l)
			}
		case *ast.IncDecStmt:
			setAt(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				setAt(x.X)
			}
		case *ast.CompositeLit:
			if x.Type != nil {
				lit(x, f.typeKey(x.Type), elemType(x.Type))
			}
		}
		return true
	})
}

// elemType is the element type of a slice, array or map type
// expression, which composite literals inside its literal may elide.
func elemType(e ast.Expr) ast.Expr {
	switch x := e.(type) {
	case *ast.ArrayType:
		return x.Elt
	case *ast.MapType:
		return x.Value
	}
	return nil
}

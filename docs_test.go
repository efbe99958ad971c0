package repro

import (
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
)

// TestDocReferences keeps the docFiles from going stale: in their code
// spans and code blocks, every `make TARGET` must name a Makefile
// target, every path under internal/, cmd/, bench/ or examples/ must
// exist, every Test*, Benchmark*, Fuzz* or Example* name must be a
// function in some _test.go file, and every -name written after
// `go run ./cmd/X` (up to a comment, pipe or line continuation) must
// be a flag cmd/X defines.
func TestDocReferences(t *testing.T) {
	targets := makeTargets(t)
	funcs := testFuncs(t)
	flags := map[string]map[string]bool{}
	for _, doc := range docFiles {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpans(string(b)) {
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
				if flags[cmd] == nil {
					flags[cmd] = cmdFlags(t, cmd)
				}
				for _, f := range flagRefRE.FindAllStringSubmatch(m[2], -1) {
					if !flags[cmd][f[1]] {
						t.Errorf("%s: `go run ./cmd/%s` has no flag -%s", doc, cmd, f[1])
					}
				}
			}
		}
	}
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

// codeSpans returns a markdown document's inline code spans (paired
// within one paragraph, line breaks read as spaces) and the lines of
// its fenced code blocks.
func codeSpans(doc string) []string {
	var spans []string
	var para []string
	flush := func() {
		text := strings.Join(para, " ")
		para = para[:0]
		parts := strings.Split(text, "`")
		for i := 1; i+1 < len(parts); i += 2 {
			spans = append(spans, parts[i])
		}
	}
	fenced := false
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			flush()
			fenced = !fenced
		case fenced:
			spans = append(spans, line)
		case strings.TrimSpace(line) == "":
			flush()
		default:
			para = append(para, line)
		}
	}
	flush()
	return spans
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

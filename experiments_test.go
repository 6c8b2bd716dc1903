package freejoin

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// codeSpanRE matches one backticked span of EXPERIMENTS.md.
	codeSpanRE = regexp.MustCompile("`[^`\n]+`")
	// citedRE matches a test or example function name inside a span.
	citedRE = regexp.MustCompile(`\b(Test[A-Z0-9_]\w*|Example\w*)\b`)
	// sectionRE matches the heading of an experiment section.
	sectionRE = regexp.MustCompile(`^## (E[0-9]+)\b`)
)

// testFuncs returns the names of the top-level functions declared in
// the module's _test.go files.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				names[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestExperimentsCiteTests keeps EXPERIMENTS.md tied to the suite: every
// `## E<n>` section cites, in backticks, at least one test or example
// that checks its claim, and every test or example the document cites is
// a function declared in some _test.go file.
func TestExperimentsCiteTests(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	declared := testFuncs(t)
	cites := map[string]int{} // per E section
	var sections []string
	section := ""
	for n, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "## ") {
			section = ""
			if m := sectionRE.FindStringSubmatch(line); m != nil {
				section = m[1]
				sections = append(sections, section)
			}
		}
		for _, span := range codeSpanRE.FindAllString(line, -1) {
			for _, name := range citedRE.FindAllString(span, -1) {
				if !declared[name] {
					t.Errorf("EXPERIMENTS.md:%d cites %s, which no _test.go file declares", n+1, name)
				}
				if section != "" {
					cites[section]++
				}
			}
		}
	}
	if len(sections) < 20 {
		t.Errorf("EXPERIMENTS.md has %d experiment sections, want E1..E20", len(sections))
	}
	for _, s := range sections {
		if cites[s] == 0 {
			t.Errorf("EXPERIMENTS.md section %s cites no test or example", s)
		}
	}
}

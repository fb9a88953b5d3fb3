package rescon

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

// facadeConsumers are the places whose uses of rescon.X justify keeping
// X in the facade. Directories are walked for .go files.
var facadeConsumers = []string{
	"examples",
	"example_test.go",
	"perfbench",
	"README.md",
	"docs/TUTORIAL.md",
}

var consumerRef = regexp.MustCompile(`rescon\.([A-Z][A-Za-z0-9_]*)`)

// TestFacadeExportsHaveConsumers keeps rescon.go sized to its consumers.
// An export stays when a consumer writes rescon.X, when the declaration
// of a kept export names it, or when it shares a parenthesized const
// block (an enumeration) with a kept value. Every other export fails the
// test, as does a consumer naming a symbol the facade does not have.
func TestFacadeExportsHaveConsumers(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "rescon.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	// decls maps each export to the declaration nodes that can name other
	// exports; methods count as part of their receiver type. enum maps a
	// const to the other members of its block.
	decls := map[string][]ast.Node{}
	enum := map[string][]string{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil {
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				name := recv.(*ast.Ident).Name
				decls[name] = append(decls[name], d.Type)
			} else if d.Name.IsExported() {
				decls[d.Name.Name] = append(decls[d.Name.Name], d.Type)
			}
		case *ast.GenDecl:
			var block []string
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						decls[s.Name.Name] = append(decls[s.Name.Name], s)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							decls[n.Name] = append(decls[n.Name], s)
							block = append(block, n.Name)
						}
					}
				}
			}
			if d.Tok == token.CONST && d.Lparen.IsValid() {
				for _, n := range block {
					enum[n] = block
				}
			}
		}
	}

	kept := map[string]bool{}
	var queue []string
	keep := func(name, why string) {
		if _, ok := decls[name]; !ok {
			t.Errorf("%s names rescon.%s, which the facade does not export", why, name)
			return
		}
		if !kept[name] {
			kept[name] = true
			queue = append(queue, name)
		}
	}
	for _, root := range facadeConsumers {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			if filepath.Ext(path) != ".go" && filepath.Ext(path) != ".md" {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range consumerRef.FindAllSubmatch(src, -1) {
				keep(string(m[1]), path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// refs keeps every export that the visited declaration of from names.
	var from string
	var refs func(ast.Node) bool
	refs = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			// pkg.Name refers to an internal package, not the facade.
			return false
		case *ast.Field:
			// Field and parameter names are not references; types are.
			ast.Inspect(n.Type, refs)
			return false
		case *ast.Ident:
			if _, ok := decls[n.Name]; ok {
				keep(n.Name, from)
			}
		}
		return true
	}
	for len(queue) > 0 {
		from, queue = queue[0], queue[1:]
		for _, n := range decls[from] {
			ast.Inspect(n, refs)
		}
		for _, m := range enum[from] {
			keep(m, from)
		}
	}

	var unused []string
	for name := range decls {
		if !kept[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("rescon.%s has no consumer: no example, perfbench, README or tutorial use, and no kept export names it", name)
	}
}

package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func TestParseAllow(t *testing.T) {
	for _, tc := range []struct {
		text    string
		want    []Allow
		wantErr string
	}{
		{
			text: "//natlevet:allow hotalloc(progress timing)",
			want: []Allow{{"hotalloc", "progress timing"}},
		},
		{
			text: "//natlevet:allow hotalloc(a, b reasons), falseshare(c)",
			want: []Allow{{"hotalloc", "a, b reasons"}, {"falseshare", "c"}},
		},
		{text: "//natlevet:allow", wantErr: "names no analyzer"},
		{text: "//natlevet:allow hotalloc", wantErr: "malformed"},
		{text: "//natlevet:allow hotalloc()", wantErr: "empty reason"},
		{text: "//natlevet:allow hotalloc( )", wantErr: "empty reason"},
	} {
		got, err := parseAllow(tc.text)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("parseAllow(%q) err = %v, want containing %q", tc.text, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseAllow(%q): %v", tc.text, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("parseAllow(%q) = %v, want %v", tc.text, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("parseAllow(%q)[%d] = %v, want %v", tc.text, i, got[i], tc.want[i])
			}
		}
	}
}

const directiveSrc = `package p

//natlevet:allow hotalloc(same line and line below are sanctioned)
var a int

//natlevet:allow unknownanalyzer(reason)
var b int

//natlevet:allow broken
var c int

//natlevet:frobnicate
var d int
`

func TestAllowlistAndLint(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", directiveSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	files := []*ast.File{f}

	al := BuildAllowlist(fset, files)
	if !al.Allowed("hotalloc", "p.go", 3) {
		t.Error("directive line itself not allowed")
	}
	if !al.Allowed("hotalloc", "p.go", 4) {
		t.Error("line below directive not allowed")
	}
	if al.Allowed("hotalloc", "p.go", 5) {
		t.Error("two lines below directive should not be allowed")
	}
	if al.Allowed("falseshare", "p.go", 4) {
		t.Error("directive must only sanction the named analyzer")
	}

	var diags []Diagnostic
	LintDirectives(fset, files, map[string]bool{"hotalloc": true},
		func(d Diagnostic) { diags = append(diags, d) })
	wants := []string{"unknown analyzer", "malformed", "unknown natlevet directive"}
	if len(diags) != len(wants) {
		t.Fatalf("LintDirectives produced %d diagnostics, want %d: %v", len(diags), len(wants), diags)
	}
	for i, w := range wants {
		if !strings.Contains(diags[i].Message, w) {
			t.Errorf("diagnostic %d = %q, want containing %q", i, diags[i].Message, w)
		}
	}
}

func TestPackageBackend(t *testing.T) {
	parse := func(src string) []*ast.File {
		t.Helper()
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		return []*ast.File{f}
	}
	if got := PackageBackend(parse("package p\n")); got != "" {
		t.Errorf("undeclared backend = %q, want \"\"", got)
	}
	native := parse("//natlevet:backend native\npackage p\n")
	if got := PackageBackend(native); got != "native" {
		t.Errorf("declared backend = %q, want \"native\"", got)
	}

	// Lint: a valid declaration is silent, an unknown backend is not.
	lint := func(src string) []Diagnostic {
		t.Helper()
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		var diags []Diagnostic
		LintDirectives(fset, []*ast.File{f}, nil, func(d Diagnostic) { diags = append(diags, d) })
		return diags
	}
	if diags := lint("//natlevet:backend native\npackage p\n"); len(diags) != 0 {
		t.Errorf("valid backend directive flagged: %v", diags)
	}
	for _, src := range []string{
		"//natlevet:backend quantum\npackage p\n",
		"//natlevet:backend\npackage p\n",
		"//natlevet:backend sim\npackage p\n", // the default needs no directive
	} {
		diags := lint(src)
		if len(diags) != 1 || !strings.Contains(diags[0].Message, "unknown backend") {
			t.Errorf("lint(%q) = %v, want one unknown-backend diagnostic", src, diags)
		}
	}
}

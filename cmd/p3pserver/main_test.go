package main

import (
	"go/parser"
	"go/token"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"p3pdb/internal/core"
	"p3pdb/internal/durable"
	"p3pdb/internal/server"
)

// routeLine matches a route line of the package doc: a tab-indented
// HTTP method and path.
var routeLine = regexp.MustCompile(`^\t(GET|POST|PUT|DELETE) +(/[^ ?]*)`)

// TestDocumentedRoutesExist holds the package doc to the server it
// documents: every route it lists must reach a handler on a single-site
// server (journaled, so the -durable routes exist), never the mux's
// plain-text "404 page not found". Handler 404s are JSON.
func TestDocumentedRoutesExist(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	store, err := durable.Open(t.TempDir(), durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	journal, err := store.OpenTenant("default")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { journal.Close() })
	site, err := core.NewSite()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.NewWithOptions(site, server.Options{Journal: journal}))
	t.Cleanup(ts.Close)

	routes := 0
	for _, line := range strings.Split(f.Doc.Text(), "\n") {
		m := routeLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		routes++
		method, path := m[1], strings.ReplaceAll(m[2], "{name}", "x")
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound && string(body) == "404 page not found\n" {
			t.Errorf("documented route %s %s is not served", method, m[2])
		}
	}
	if routes < 10 {
		t.Fatalf("found %d route lines in the package doc; the parser no longer reads it", routes)
	}
}

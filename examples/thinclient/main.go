// Thin client: why the server-centric architecture suits mobile devices
// (Section 4.2 of the paper).
//
// The example contrasts the two deployments for the same browsing session:
//
//   - Client-centric: the device downloads every policy document, parses
//     it, augments it with the base data schema, and evaluates APPEL
//     locally (the JRC-engine pipeline). We count the bytes shipped to the
//     device and the device-side compute.
//
//   - Server-centric: the device sends its preference once per request and
//     receives a one-word decision; parsing, augmentation, and matching
//     stay on the server (here: the SQL engine over pre-shredded tables).
//
// Run with: go run ./examples/thinclient
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"p3pdb/internal/appel"
	"p3pdb/internal/appelengine"
	"p3pdb/internal/core"
	"p3pdb/internal/server"
	"p3pdb/internal/workload"
)

func main() {
	// The site hosts the synthesized 29-policy corpus.
	d := workload.Generate(42)
	site, err := core.NewSite()
	if err != nil {
		log.Fatal(err)
	}
	for _, pol := range d.Policies {
		if err := site.InstallPolicy(pol); err != nil {
			log.Fatal(err)
		}
	}
	if err := site.InstallReferenceFile(d.RefFile); err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: server.New(site)}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	pref, _ := workload.PreferenceByLevel("High")
	pages := make([]string, 0, len(d.Policies))
	for _, pol := range d.Policies {
		pages = append(pages, d.URIFor(pol.Name))
	}

	// --- Client-centric session: fetch + parse + augment + match on the
	// device for every page.
	client := server.NewClient(base)
	engine := appelengine.New()
	rs, err := appel.Parse(pref.XML)
	if err != nil {
		log.Fatal(err)
	}
	var bytesToDevice int
	var deviceCompute time.Duration
	blocked := 0
	for _, pol := range d.Policies {
		policyXML, err := client.FetchPolicy(pol.Name)
		if err != nil {
			log.Fatal(err)
		}
		bytesToDevice += len(policyXML)
		start := time.Now()
		dec, err := engine.Match(rs, policyXML)
		if err != nil {
			log.Fatal(err)
		}
		deviceCompute += time.Since(start)
		if dec.Behavior == "block" {
			blocked++
		}
	}
	fmt.Printf("client-centric session over %d pages:\n", len(pages))
	fmt.Printf("  policy bytes shipped to device: %d\n", bytesToDevice)
	fmt.Printf("  device-side matching compute:   %v\n", deviceCompute)
	fmt.Printf("  blocked pages:                  %d\n\n", blocked)

	// --- Server-centric session: one small decision per page.
	thin := server.NewClient(base)
	thin.Engine = "sql"
	var decisionBytes int
	var serverReported time.Duration
	blocked = 0
	for _, page := range pages {
		res, _, err := thin.Check(server.CheckRequest{URL: page, Preference: pref.XML})
		if err != nil {
			log.Fatal(err)
		}
		verdict := "allow"
		if !res.Allowed {
			verdict = "block"
			blocked++
		}
		decisionBytes += len(verdict)
		// A fast-path allow ran no engine and carries no decision.
		if dec := res.URL.Decision; dec != nil {
			serverReported += time.Duration(dec.ConvertMicros+dec.QueryMicros) * time.Microsecond
		}
	}
	fmt.Printf("server-centric session over %d pages:\n", len(pages))
	fmt.Printf("  decision bytes shipped to device: %d\n", decisionBytes)
	fmt.Printf("  device-side matching compute:     0 (no APPEL engine on the device)\n")
	fmt.Printf("  server-side matching time:        %v\n", serverReported)
	fmt.Printf("  blocked pages:                    %d\n\n", blocked)

	fmt.Printf("the device sheds %d KB of policy downloads and all matching compute;\n", bytesToDevice/1024)
	fmt.Println("upgrading the matcher now means upgrading one server, not every handset.")
}

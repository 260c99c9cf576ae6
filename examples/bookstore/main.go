// Bookstore: the full server-centric deployment over HTTP (Figures 5-6).
//
// The example plays both roles. The site owner installs two policies — a
// strict one for checkout, a looser one (with marketing) for the catalog —
// and a reference file mapping URI spaces to them. Then two users browse:
// privacy-conscious Jane and easygoing Pat. Each client holds only its
// APPEL preference; parsing, shredding, and matching all happen on the
// server, which is the architecture's point.
//
// Run with: go run ./examples/bookstore
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"

	"p3pdb/internal/appel"
	"p3pdb/internal/core"
	"p3pdb/internal/server"
)

const policies = `<POLICIES xmlns="http://www.w3.org/2002/01/P3Pv1">
  <POLICY name="checkout" discuri="http://books.example.com/privacy#checkout">
    <ENTITY><DATA-GROUP>
      <DATA ref="#business.name">Example Books</DATA>
    </DATA-GROUP></ENTITY>
    <ACCESS><contact-and-other/></ACCESS>
    <STATEMENT>
      <CONSEQUENCE>We need your address and payment data to ship your order.</CONSEQUENCE>
      <PURPOSE><current/></PURPOSE>
      <RECIPIENT><ours/><same/></RECIPIENT>
      <RETENTION><stated-purpose/></RETENTION>
      <DATA-GROUP>
        <DATA ref="#user.name"/>
        <DATA ref="#user.home-info.postal"/>
        <DATA ref="#dynamic.miscdata"><CATEGORIES><purchase/></CATEGORIES></DATA>
      </DATA-GROUP>
    </STATEMENT>
  </POLICY>
  <POLICY name="catalog" discuri="http://books.example.com/privacy#catalog">
    <ENTITY><DATA-GROUP>
      <DATA ref="#business.name">Example Books</DATA>
    </DATA-GROUP></ENTITY>
    <ACCESS><none/></ACCESS>
    <STATEMENT>
      <CONSEQUENCE>We profile browsing to recommend and advertise books.</CONSEQUENCE>
      <PURPOSE><admin/><individual-analysis/><telemarketing/></PURPOSE>
      <RECIPIENT><ours/><unrelated/></RECIPIENT>
      <RETENTION><indefinitely/></RETENTION>
      <DATA-GROUP>
        <DATA ref="#dynamic.clickstream"/>
        <DATA ref="#user.home-info.online.email"/>
      </DATA-GROUP>
    </STATEMENT>
  </POLICY>
</POLICIES>`

const referenceFile = `<META xmlns="http://www.w3.org/2002/01/P3Pv1">
  <POLICY-REFERENCES>
    <POLICY-REF about="/P3P/Policies.xml#checkout">
      <INCLUDE>/checkout/*</INCLUDE>
      <INCLUDE>/cart*</INCLUDE>
    </POLICY-REF>
    <POLICY-REF about="/P3P/Policies.xml#catalog">
      <INCLUDE>/*</INCLUDE>
      <EXCLUDE>/private/*</EXCLUDE>
    </POLICY-REF>
  </POLICY-REFERENCES>
</META>`

// patPreference tolerates marketing but not indefinite retention of data
// shared with unrelated parties... actually Pat tolerates everything.
const patPreference = `<appel:RULESET xmlns:appel="http://www.w3.org/2002/01/APPELv1">
  <appel:OTHERWISE behavior="request" description="Pat accepts any policy"/>
</appel:RULESET>`

func main() {
	// --- Site owner: bring up the service and install privacy metadata.
	site, err := core.NewSite()
	if err != nil {
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
	fmt.Printf("bookstore privacy service at %s\n\n", base)

	owner := server.NewClient(base)
	installed, err := owner.InstallPolicies(policies)
	if err != nil {
		log.Fatal(err)
	}
	if err := owner.InstallReferenceFile(referenceFile); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("site owner installed policies %v and the reference file\n\n", installed)

	// --- Two thin clients browse, each sending only its preference.
	client := server.NewClient(base)
	pages := []string{"/books/dune", "/cart", "/checkout/pay", "/books/emma"}
	for name, pref := range map[string]string{"Jane": appel.JanePreferenceXML, "Pat": patPreference} {
		fmt.Printf("%s browses:\n", name)
		for _, page := range pages {
			res, _, err := client.Check(server.CheckRequest{URL: page, Preference: pref})
			if err != nil {
				log.Fatal(err)
			}
			verdict := "OK  "
			if !res.Allowed {
				verdict = "STOP"
			}
			fmt.Printf("  %s %-14s policy=%-9s %s\n", verdict, page, res.URL.PolicyName, blockReason(res.URL))
		}
		fmt.Println()
	}

	// --- The site owner checks what is driving users away (Section 4.2).
	stats, err := owner.Analytics()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("site-owner analytics (which policies conflict with user preferences):")
	for _, s := range stats {
		fmt.Printf("  policy %-9s blocked %d time(s) by rule %q\n", s.Policy, s.Blocks, s.Rule)
	}
}

// blockReason names the rule behind a block. A block always carries the
// engine's decision; an allow proved on the compact fast path carries
// none.
func blockReason(p *server.CheckPartResponse) string {
	if p.Allowed || p.Decision == nil {
		return ""
	}
	return fmt.Sprintf("(blocked by rule %d)", p.Decision.RuleIndex+1)
}

// Cookiewall: cookie decisions, two ways.
//
// Section 3.2 of the paper describes IE6's client-centric mechanism: a
// site ships a *compact policy* (the CP header's token summary) and the
// browser evaluates it locally before accepting a cookie. The
// server-centric architecture replaces that with a reference-file lookup
// (COOKIE-INCLUDE patterns) plus database matching of the full policy.
//
// This example runs both for the same site: a session cookie governed by
// a minimal policy and a tracking cookie governed by a marketing policy.
// The compact path reconstructs a synthetic policy from the tokens and
// evaluates the preference against it client-side; the server-centric
// path asks the site. The decisions agree, but the compact form is lossy
// (statement boundaries collapse), which is why it can only ever be a
// conservative approximation.
//
// Run with: go run ./examples/cookiewall
package main

import (
	"fmt"
	"log"

	"p3pdb/internal/appel"
	"p3pdb/internal/appelengine"
	"p3pdb/internal/compact"
	"p3pdb/internal/core"
)

const policies = `<POLICIES xmlns="http://www.w3.org/2002/01/P3Pv1">
  <POLICY name="session"><STATEMENT>
    <CONSEQUENCE>Session state for your cart.</CONSEQUENCE>
    <PURPOSE><current/></PURPOSE>
    <RECIPIENT><ours/></RECIPIENT>
    <RETENTION><no-retention/></RETENTION>
    <DATA-GROUP><DATA ref="#dynamic.cookies"><CATEGORIES><state/></CATEGORIES></DATA></DATA-GROUP>
  </STATEMENT></POLICY>
  <POLICY name="tracking"><STATEMENT>
    <CONSEQUENCE>Cross-visit interest profiles for ad partners.</CONSEQUENCE>
    <PURPOSE><individual-analysis/><telemarketing/></PURPOSE>
    <RECIPIENT><ours/><unrelated/></RECIPIENT>
    <RETENTION><indefinitely/></RETENTION>
    <DATA-GROUP>
      <DATA ref="#dynamic.cookies"><CATEGORIES><uniqueid/><preference/></CATEGORIES></DATA>
      <DATA ref="#dynamic.clickstream"/>
    </DATA-GROUP>
  </STATEMENT></POLICY>
</POLICIES>`

const referenceFile = `<META xmlns="http://www.w3.org/2002/01/P3Pv1">
  <POLICY-REFERENCES>
    <POLICY-REF about="#session"><INCLUDE>/*</INCLUDE><COOKIE-INCLUDE name="cart*"/></POLICY-REF>
    <POLICY-REF about="#tracking"><INCLUDE>/ads/*</INCLUDE><COOKIE-INCLUDE name="uid*"/></POLICY-REF>
  </POLICY-REFERENCES>
</META>`

func main() {
	site, err := core.NewSite()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := site.InstallPolicyXML(policies); err != nil {
		log.Fatal(err)
	}
	if err := site.InstallReferenceFileXML(referenceFile); err != nil {
		log.Fatal(err)
	}

	cookies := []string{"cart_7f3a", "uid_928312"}
	pref := appel.JanePreferenceXML
	rs, err := appel.Parse(pref)
	if err != nil {
		log.Fatal(err)
	}
	engine := appelengine.New()

	for _, cookie := range cookies {
		fmt.Printf("cookie %q:\n", cookie)

		// --- Client-centric, IE6-style: fetch the compact policy for
		// the governing full policy and evaluate it locally.
		name, err := site.PolicyForCookie(cookie)
		if err != nil {
			log.Fatal(err)
		}
		cp, err := site.CompactPolicy(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  CP header:      %s\n", cp)
		summary, err := compact.Parse(cp)
		if err != nil {
			log.Fatal(err)
		}
		synthetic := summary.ToPolicy(name + "-compact")
		clientDec, err := engine.Match(rs, synthetic.String())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  client-centric: %-8s (compact policy evaluated in the browser)\n",
			clientDec.Behavior)

		// --- Server-centric: one call, full policy, database matching.
		serverDec, err := site.MatchPolicy(pref, name, core.EngineSQL)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  server-centric: %-8s (policy %q via SQL, %v)\n\n",
			serverDec.Behavior, serverDec.PolicyName, serverDec.Convert+serverDec.Query)
	}
}

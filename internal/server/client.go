package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// Client is the thin-client side of the server-centric architecture: it
// sends the user's APPEL preference (or names a level) and asks the
// server for decisions; no APPEL engine, policy parser, or base data
// schema runs on the client.
type Client struct {
	base string
	http *http.Client
	// Engine selects the server-side matching implementation.
	Engine string
}

// NewClient targets a server base URL (e.g. "http://localhost:8733").
func NewClient(base string) *Client {
	return &Client{
		base:   strings.TrimRight(base, "/"),
		http:   &http.Client{Timeout: 30 * time.Second},
		Engine: "sql",
	}
}

func (c *Client) do(method, path, body string) (*http.Response, error) {
	req, err := http.NewRequest(method, c.base+path, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	return c.http.Do(req)
}

func decodeError(resp *http.Response) error {
	defer resp.Body.Close()
	var e apiError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		return fmt.Errorf("server returned %s", resp.Status)
	}
	return fmt.Errorf("server returned %s: %s", resp.Status, e.Error)
}

// InstallPolicies uploads a POLICY or POLICIES document and returns the
// installed policy names. (A site-owner operation.)
func (c *Client) InstallPolicies(policyXML string) ([]string, error) {
	resp, err := c.do(http.MethodPost, "/policies", policyXML)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusCreated {
		return nil, decodeError(resp)
	}
	defer resp.Body.Close()
	var out InstallResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.Installed, nil
}

// InstallReferenceFile uploads the site's META document.
func (c *Client) InstallReferenceFile(metaXML string) error {
	resp, err := c.do(http.MethodPost, "/reference", metaXML)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusNoContent {
		return decodeError(resp)
	}
	resp.Body.Close()
	return nil
}

// CheckRequest names one protocol-loop check: a URL and/or a cookie,
// and either a server-side preference level or the user's own APPEL
// document.
type CheckRequest struct {
	URL    string
	Cookie string
	// Level names a server-side preference (an agent attitude —
	// apathetic, mild, paranoid — or a JRC profile). Ignored when
	// Preference is set.
	Level string
	// Preference, when non-empty, is POSTed as the APPEL body.
	Preference string
	// Engine overrides the client's fallback engine for this check.
	Engine string
}

// Check runs the protocol loop (reference-file lookup, compact fast
// path, full-match fallback) for a page visit and/or cookie. The second
// return is the P3P response header carrying the applicable policy's
// compact form.
func (c *Client) Check(req CheckRequest) (CheckResponse, string, error) {
	q := url.Values{}
	if req.URL != "" {
		q.Set("url", req.URL)
	}
	if req.Cookie != "" {
		q.Set("cookie", req.Cookie)
	}
	engine := req.Engine
	if engine == "" {
		engine = c.Engine
	}
	q.Set("engine", engine)
	method, body := http.MethodGet, ""
	if req.Preference != "" {
		method, body = http.MethodPost, req.Preference
	} else if req.Level != "" {
		q.Set("level", req.Level)
	}
	resp, err := c.do(method, "/check?"+q.Encode(), body)
	if err != nil {
		return CheckResponse{}, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return CheckResponse{}, "", decodeError(resp)
	}
	defer resp.Body.Close()
	cp := resp.Header.Get("P3P")
	var out CheckResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return CheckResponse{}, "", err
	}
	return out, cp, nil
}

// CreateSite provisions an empty dynamic tenant through the
// multi-tenant admin API (PUT /sites/{name}); an existing tenant of the
// same name is not an error.
func (c *Client) CreateSite(name string) error {
	resp, err := c.do(http.MethodPut, "/sites/"+url.PathEscape(name), "")
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusConflict {
		return decodeError(resp)
	}
	resp.Body.Close()
	return nil
}

// FetchPolicy downloads a policy document (the client-centric fetch used
// by the hybrid architecture).
func (c *Client) FetchPolicy(name string) (string, error) {
	resp, err := c.do(http.MethodGet, "/policies/"+url.PathEscape(name), "")
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", decodeError(resp)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// Policies lists installed policy names.
func (c *Client) Policies() ([]string, error) {
	resp, err := c.do(http.MethodGet, "/policies", "")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	defer resp.Body.Close()
	var out []string
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}

// AnalyticsRow is one conflict-analytics entry.
type AnalyticsRow struct {
	Policy string `json:"policy"`
	Rule   string `json:"rule"`
	Blocks int    `json:"blocks"`
}

// Analytics fetches the site-owner conflict statistics.
func (c *Client) Analytics() ([]AnalyticsRow, error) {
	resp, err := c.do(http.MethodGet, "/analytics", "")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	defer resp.Body.Close()
	var out []AnalyticsRow
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}

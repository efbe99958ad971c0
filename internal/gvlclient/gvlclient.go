// Package gvlclient downloads the Global Vendor List history over
// HTTP, as the paper did: "we systematically downloaded all 215
// previously published versions of the GVL from
// https://vendorlist.consensu.org/vXXX/vendor-list.json and verified
// their accuracy using the Internet Wayback Machine" (Section 3.4).
//
// The client walks version numbers upward until a gap of misses,
// validates each document (version echo, date monotonicity), and
// produces a content-hash manifest that a second, independent source —
// in our case a second fetch; in the paper, the Wayback Machine — can
// be verified against.
package gvlclient

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/gvl"
)

// maxMisses is how many consecutive 404s end FetchAll's walk.
const maxMisses = 3

// Client fetches vendor lists.
type Client struct {
	http *http.Client
	// base is the scheme+host to fetch from, e.g.
	// "http://vendorlist.consensu.org".
	base string
}

// New returns a client fetching from base. If serverAddr is non-empty,
// every hostname resolves to it (the test-fixture DNS override used
// with webserve).
func New(base, serverAddr string) *Client {
	transport := http.DefaultTransport
	if serverAddr != "" {
		dialer := &net.Dialer{Timeout: 5 * time.Second}
		transport = &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				return dialer.DialContext(ctx, network, serverAddr)
			},
		}
	}
	return &Client{
		http: &http.Client{Transport: transport, Timeout: 15 * time.Second},
		base: base,
	}
}

// FetchVersion downloads and validates one versioned list.
func (c *Client) FetchVersion(ctx context.Context, version int) (*gvl.List, []byte, error) {
	url := fmt.Sprintf("%s/v%d/vendor-list.json", c.base, version)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, nil, ErrNotPublished{Version: version}
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("gvlclient: v%d: status %d", version, resp.StatusCode)
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, nil, err
	}
	var list gvl.List
	if err := json.Unmarshal(raw, &list); err != nil {
		return nil, nil, fmt.Errorf("gvlclient: v%d: %w", version, err)
	}
	if list.VendorListVersion != version {
		return nil, nil, fmt.Errorf("gvlclient: v%d: document claims version %d",
			version, list.VendorListVersion)
	}
	return &list, raw, nil
}

// ErrNotPublished marks versions the server has never published.
type ErrNotPublished struct{ Version int }

func (e ErrNotPublished) Error() string {
	return fmt.Sprintf("gvlclient: version %d not published", e.Version)
}

// ManifestEntry records one downloaded version for verification.
type ManifestEntry struct {
	Version int       `json:"version"`
	Date    time.Time `json:"date"`
	Vendors int       `json:"vendors"`
	SHA256  string    `json:"sha256"`
}

// History bundles a download run.
type History struct {
	History  *gvl.History
	Manifest []ManifestEntry
}

// FetchAll walks versions from 1 upward, stopping after maxMisses
// consecutive unpublished versions, and validates the sequence.
func (c *Client) FetchAll(ctx context.Context) (*History, error) {
	out := &History{History: &gvl.History{}}
	misses := 0
	var prev *gvl.List
	for version := 1; ; version++ {
		list, raw, err := c.FetchVersion(ctx, version)
		if err != nil {
			if _, miss := err.(ErrNotPublished); miss {
				misses++
				if misses >= maxMisses {
					break
				}
				continue
			}
			return nil, err
		}
		misses = 0
		if prev != nil && !list.LastUpdated.After(prev.LastUpdated) {
			return nil, fmt.Errorf("gvlclient: v%d not newer than v%d",
				list.VendorListVersion, prev.VendorListVersion)
		}
		sum := sha256.Sum256(raw)
		out.History.Versions = append(out.History.Versions, *list)
		out.Manifest = append(out.Manifest, ManifestEntry{
			Version: list.VendorListVersion,
			Date:    list.LastUpdated,
			Vendors: len(list.Vendors),
			SHA256:  hex.EncodeToString(sum[:]),
		})
		prev = list
	}
	if len(out.History.Versions) == 0 {
		return nil, fmt.Errorf("gvlclient: no versions published at %s", c.base)
	}
	return out, nil
}

// Verify re-fetches every manifest entry and compares content hashes —
// the role the Internet Wayback Machine played for the paper. It
// returns the number of verified entries and fails on any mismatch.
func (c *Client) Verify(ctx context.Context, manifest []ManifestEntry) (int, error) {
	for _, m := range manifest {
		_, raw, err := c.FetchVersion(ctx, m.Version)
		if err != nil {
			return 0, fmt.Errorf("gvlclient: verify v%d: %w", m.Version, err)
		}
		sum := sha256.Sum256(raw)
		if hex.EncodeToString(sum[:]) != m.SHA256 {
			return 0, fmt.Errorf("gvlclient: verify v%d: content hash mismatch", m.Version)
		}
	}
	return len(manifest), nil
}

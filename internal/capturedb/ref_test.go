package capturedb

import (
	"encoding/json"

	"repro/internal/capture"
)

// toRec is the reflection encoder the wire format was defined by:
// json.Marshal(toRec(c)) plus a newline is the line Encode must write.
// Tests hold AppendEncode to it.
func toRec(c *capture.Capture) rec {
	r := rec{
		Seed: c.SeedURL, Final: c.FinalURL, Domain: c.FinalDomain,
		Day: int(c.Day), Vantage: c.Vantage.Name, Geo: int(c.Vantage.Geo),
		Cloud: c.Vantage.Cloud, Config: c.Config, Status: c.Status,
		Shot: c.ScreenshotText, Timeout: c.TimedOut, Failed: c.Failed, Err: c.Error,
	}
	for _, q := range c.Requests {
		r.Reqs = append(r.Reqs, [4]any{q.Host, q.Path, q.Status, q.BytesRaw})
	}
	for _, ck := range c.Cookies {
		r.Cookies = append(r.Cookies, ck.Domain+"|"+ck.Name+"|"+ck.Value)
	}
	for _, sr := range c.Storage {
		r.Storage = append(r.Storage, [4]any{int(sr.Kind), sr.Origin, sr.Key, sr.Identifying})
	}
	return r
}

// refEncode is the line the reflection encoder writes for c.
func refEncode(c *capture.Capture) ([]byte, error) {
	data, err := json.Marshal(toRec(c))
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

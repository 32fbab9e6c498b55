package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestJSONWireRejectsTrailingBytesAndRepeatedKeys pins the two JSON wire
// rules the decoder enforces on every endpoint. A body with bytes after
// its top-level value (two concatenated instances, or garbage) must not
// be answered for its first value alone, and a field given twice in one
// object (compared after case folding) must not be merged into the
// elements already decoded. /v1/check answers 400; /v1/batch answers the
// line with an error.
func TestJSONWireRejectsTrailingBytesAndRepeatedKeys(t *testing.T) {
	ts := newTestServer(t, Config{})
	arr := strings.TrimSpace(strings.ReplaceAll(pairJSON(t, consistentPairText), "\n", " "))
	cases := map[string]string{
		"array then garbage":        arr + " garbage",
		"array then second value":   arr + " [1]",
		"two concatenated arrays":   arr + arr,
		"object then garbage":       `{"name":"n","bags":` + arr + `} garbage`,
		"repeated bags key":         `{"name":"n","bags":[{"schema":["A"],"tuples":[{"values":["x"],"count":1}]}],"bags":[{"name":"q"}]}`,
		"repeated tuples key":       `[{"schema":["A"],"tuples":[{"values":["x"],"count":5},{"values":["z"],"count":2}],"tuples":[{"values":["y"]}]}]`,
		"repeated key across folds": `[{"schema":["A"],"Schema":["B"],"tuples":[]}]`,
	}
	for label, body := range cases {
		resp, data := postBody(t, ts.URL+"/v1/check", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: /v1/check status %d, want 400: %s", label, resp.StatusCode, data)
		}
		resp, data = postBody(t, ts.URL+"/v1/batch", body+"\n")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: /v1/batch status %d: %s", label, resp.StatusCode, data)
		}
		var lines []BatchLine
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			var bl BatchLine
			if err := json.Unmarshal(sc.Bytes(), &bl); err != nil {
				t.Fatalf("%s: bad NDJSON line %q: %v", label, sc.Text(), err)
			}
			lines = append(lines, bl)
		}
		if len(lines) != 1 || lines[0].Error == "" || lines[0].Report != nil {
			t.Errorf("%s: /v1/batch lines %+v, want one error line", label, lines)
		}
	}
}

package core

// apidoc.go renders the v1 API reference from the route table's
// self-description. cmd/apidoc writes it to API.md; a conformance test
// fails when the committed file drifts from the table.

import (
	"fmt"
	"strings"
)

// APIDocMarkdown renders the full API.md content from the route table.
func APIDocMarkdown() string {
	var b strings.Builder
	b.WriteString(`# Observatory v1 API

<!-- Generated from the route table in internal/core/routes.go by
     go run ./cmd/apidoc > API.md — edit the table, not this file. -->

The controller (cmd/obsd) serves this API. Conventions shared by every
endpoint:

- **Request ids.** Send ` + "`X-Request-ID`" + ` to tag a request; the server
  echoes it (or mints one) on the response and in every error body, and
  request traces at ` + "`/api/v1/debug/traces`" + ` carry it, so client logs
  join against server traces offline.
- **Errors.** Every non-2xx response is the envelope
  ` + "`" + `{"error": {"code": "<machine_code>", "message": "...", "request_id": "..."}}` + "`" + `.
  Universal codes: ` + "`not_found`" + ` (no such route or resource),
  ` + "`method_not_allowed`" + ` (405, with an ` + "`Allow`" + ` header),
  ` + "`unavailable`" + ` (503 while the controller replays its journal after a
  restart — retry after the ` + "`Retry-After`" + ` delay), and ` + "`rate_limited`" + `
  (429 when admission control sheds the request under load, also with a
  ` + "`Retry-After`" + ` delay; low-priority routes shed first). Behind a
  federation coordinator (obsd ` + "`-shards`/`-coordinator`" + `) one more code
  appears: ` + "`shard_unavailable`" + ` (503 when the single shard owning the
  request's keyspace is down and not yet failed over — honor
  ` + "`Retry-After`" + `; every other shard keeps serving). Per-route codes
  are listed below.
- **Pagination.** List responses are ` + "`" + `{"items": [...], "next_cursor": "..."}` + "`" + `;
  ` + "`next_cursor`" + ` is omitted on the last page and is otherwise passed back
  as ` + "`?cursor=`" + `.
- **Body cap.** Request bodies over 8 MiB are rejected with 413
  (` + "`body_too_large`" + `).

`)
	for _, rt := range APIRoutes() {
		fmt.Fprintf(&b, "## %s %s\n\n", rt.Method, rt.Pattern)
		fmt.Fprintf(&b, "%s\n\n", rt.Summary)
		fmt.Fprintf(&b, "- Route name (metrics/traces tag): `%s`\n", rt.Name)
		fmt.Fprintf(&b, "- Admission priority: %s\n", rt.Priority)
		if rt.Request != "" {
			fmt.Fprintf(&b, "- Request body: %s\n", rt.Request)
		}
		fmt.Fprintf(&b, "- Response: %s\n", rt.Response)
		for _, q := range rt.Query {
			fmt.Fprintf(&b, "- Query `%s`: %s\n", q[0], q[1])
		}
		if len(rt.Errors) > 0 {
			codes := make([]string, len(rt.Errors))
			for i, c := range rt.Errors {
				codes[i] = "`" + c + "`"
			}
			fmt.Fprintf(&b, "- Error codes: %s\n", strings.Join(codes, ", "))
		}
		b.WriteString("\n")
	}
	return b.String()
}

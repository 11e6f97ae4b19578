package api

import (
	"context"
	"errors"
	"net/http"
	"time"

	"utcq/internal/ingest"
	"utcq/internal/store"
	"utcq/pkg/client"
)

// Sentinels that backends and front-end routes wrap so Classify can map
// a failure without string matching.
var (
	// ErrBadRequest: a malformed or invalid request (400 bad_request).
	ErrBadRequest = errors.New("invalid request")
	// ErrTooLarge: an oversized batch (413 too_large).
	ErrTooLarge = errors.New("request too large")
	// ErrBacklog: ingest admission shedding (429 backlog).
	ErrBacklog = errors.New("ingest backlog full")
	// ErrIngestDisabled: a node without a WAL (503 ingest_disabled).
	ErrIngestDisabled = errors.New("ingestion disabled")
	// ErrNotLeader: a replication follower refusing a direct write (503
	// not_leader).
	ErrNotLeader = errors.New("not the leader")
	// ErrNotFound: no such route or artifact (404 not_found).
	ErrNotFound = errors.New("not found")
	// ErrUnsupported: an endpoint this backend does not serve (501
	// unsupported).
	ErrUnsupported = errors.New("unsupported")
)

// classes is the v1 status/code table (docs/ARCHITECTURE.md §10.4) for
// errors that are not already a *client.APIError, in match order: the
// first sentinel an error wraps decides.  Anything unmatched is 500
// internal.
var classes = []struct {
	err    error
	status int
	code   string
}{
	{store.ErrUnknownTrajectory, http.StatusBadRequest, client.CodeUnknownTrajectory},
	{ErrBadRequest, http.StatusBadRequest, client.CodeBadRequest},
	{ingest.ErrRejected, http.StatusBadRequest, client.CodeBadRequest},
	{ErrTooLarge, http.StatusRequestEntityTooLarge, client.CodeTooLarge},
	{ErrBacklog, http.StatusTooManyRequests, client.CodeBacklog},
	{store.ErrShardQuarantined, http.StatusServiceUnavailable, client.CodeShardQuarantined},
	{ingest.ErrReadOnly, http.StatusServiceUnavailable, client.CodeReadOnly},
	{ErrIngestDisabled, http.StatusServiceUnavailable, client.CodeIngestDisabled},
	{ErrNotLeader, http.StatusServiceUnavailable, client.CodeNotLeader},
	{context.DeadlineExceeded, http.StatusGatewayTimeout, client.CodeTimeout},
	{context.Canceled, http.StatusGatewayTimeout, client.CodeTimeout},
	{store.ErrGenerationRetired, http.StatusGone, client.CodeGenRetired},
	{ingest.ErrWALTruncated, http.StatusGone, client.CodeWALTruncated},
	{store.ErrGenerationUnknown, http.StatusNotFound, client.CodeGenUnknown},
	{ErrNotFound, http.StatusNotFound, client.CodeNotFound},
	{ErrUnsupported, http.StatusNotImplemented, client.CodeUnsupported},
}

// Classify maps err to its HTTP status and v1 envelope.  A
// *client.APIError — a member's classified answer forwarded by the
// router, or the router's own condition — passes through verbatim;
// everything else goes through the status/code table.  Caller mistakes
// are 400; transient degradation is 503 (429 for backlog shedding) with
// a Retry-After so well-behaved clients back off; a query stopped at its
// deadline — or abandoned by its caller — is 504.
func Classify(err error) (int, client.ErrorResponse) {
	var ae *client.APIError
	if errors.As(err, &ae) {
		env := client.ErrorResponse{Code: ae.Code, Error: ae.Message, RetryAfter: int(ae.RetryAfter / time.Second)}
		if env.RetryAfter == 0 {
			env.RetryAfter = retryAfter(ae.Status)
		}
		return ae.Status, env
	}
	status, env := http.StatusInternalServerError, client.ErrorResponse{Code: client.CodeInternal, Error: err.Error()}
	for _, c := range classes {
		if errors.Is(err, c.err) {
			status, env.Code = c.status, c.code
			break
		}
	}
	env.RetryAfter = retryAfter(status)
	return status, env
}

// retryAfter is the default backoff, in seconds, of a transient status:
// admission rejections clear as soon as the drain catches up;
// quarantines and read-only mode take longer.
func retryAfter(status int) int {
	switch status {
	case http.StatusTooManyRequests:
		return 1
	case http.StatusServiceUnavailable:
		return 2
	}
	return 0
}

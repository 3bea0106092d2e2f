package deploy

import (
	"errors"
	"fmt"
	"io"
	"net"
)

// The deployment's error taxonomy. Every failure in a cloud-edge exchange is
// either
//
//   - transient: the connection misbehaved (reset, timeout, mid-frame EOF)
//     but the protocol state is intact — a reconnect plus session resume can
//     heal it, so the retry layer may spend budget on it; or
//   - fatal: the peer violated the protocol (bad frame length, undecodable
//     frame, out-of-order message, a report carrying NaN/negative physics)
//     or reported an application failure — retrying cannot help and would
//     only mask a bug, so the edge fails immediately (aborting the run under
//     engine.FailFast, marking the edge down under engine.Degrade).
//
// ProtocolError and EdgeError mark the fatal classes; Transient classifies.

// ProtocolError is a fatal wire-protocol violation.
type ProtocolError struct {
	Reason string
}

// Error implements error.
func (e *ProtocolError) Error() string { return "deploy: protocol: " + e.Reason } //lint:allow hotalloc error formatting runs on failure paths only

// protocolErrorf builds a ProtocolError.
func protocolErrorf(format string, args ...any) error {
	return &ProtocolError{Reason: fmt.Sprintf(format, args...)}
}

// EdgeError is a fatal application-level failure reported by an edge via
// MsgError (e.g. its runtime could not load a checkpoint or serve a slot).
type EdgeError struct {
	EdgeID int
	Reason string
}

// Error implements error.
func (e *EdgeError) Error() string {
	return fmt.Sprintf("deploy: edge %d failed: %s", e.EdgeID, e.Reason)
}

// TransientError marks a failure the retry layer may spend budget on even
// though it is not itself a connection-level I/O error — e.g. no live
// connection arrived within the resume window. Error is a passthrough so
// wrapping a message in the taxonomy never changes its string.
type TransientError struct {
	Reason string
}

// Error implements error.
func (e *TransientError) Error() string { return e.Reason }

// Transientf builds a TransientError.
func Transientf(format string, args ...any) error {
	return &TransientError{Reason: fmt.Sprintf(format, args...)}
}

// Transient reports whether err is worth retrying over a fresh connection.
// Fatal taxonomy members are never transient; explicit TransientError and
// connection-level I/O failures (net.Error, closed/reset connections and
// pipes, EOF and mid-frame EOF) are.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	var te *TransientError
	if errors.As(err, &te) {
		return true
	}
	var pe *ProtocolError
	if errors.As(err, &pe) {
		return false
	}
	var ee *EdgeError
	if errors.As(err, &ee) {
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	// Remaining plumbing errors (e.g. syscall-level resets surfaced as
	// *net.OpError already match net.Error above). Anything unrecognized is
	// treated as fatal: spending retry budget on an unknown failure mode
	// hides bugs, while a genuinely flaky link always surfaces as I/O.
	return false
}

package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"github.com/carbonedge/carbonedge/internal/deploy"
)

// codecCost is what one frame costs the wire codec.
type codecCost struct {
	encodeNS, decodeNS float64
	bytes              float64 // header plus body
}

// roundTripNS is the cost of writing the frame once and reading it once.
func (c codecCost) roundTripNS() float64 { return c.encodeNS + c.decodeNS }

// replayBudget bounds how long each direction of one frame kind is replayed.
const replayBudget = 30 * time.Millisecond

// timeLoop runs fn until the budget is spent (at least three times) and
// returns the mean nanoseconds per call.
func timeLoop(budget time.Duration, fn func() error) (float64, error) {
	start := sinceStart()
	n := 0
	for {
		if err := fn(); err != nil {
			return 0, err
		}
		n++
		if elapsed := sinceStart() - start; n >= 3 && elapsed >= budget {
			return float64(elapsed) / float64(n), nil
		}
	}
}

// replayFrame prices a frame body teed off a live link: ReadMessage over the
// framed bytes, then WriteMessage of the decoded message. It returns the
// decoded message too, for the validators.
func replayFrame(body []byte) (codecCost, *deploy.Message, error) {
	framed := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(framed, uint32(len(body)))
	copy(framed[4:], body)

	var msg *deploy.Message
	rd := bytes.NewReader(framed)
	decode, err := timeLoop(replayBudget, func() error {
		rd.Reset(framed)
		m, err := deploy.ReadMessage(rd)
		msg = m
		return err
	})
	if err != nil {
		return codecCost{}, nil, fmt.Errorf("replay decode: %w", err)
	}
	encode, err := timeLoop(replayBudget, func() error {
		return deploy.WriteMessage(io.Discard, msg)
	})
	if err != nil {
		return codecCost{}, nil, fmt.Errorf("replay encode: %w", err)
	}
	return codecCost{encodeNS: encode, decodeNS: decode, bytes: float64(len(framed))}, msg, nil
}

// replayKind prices the teed frame of one message type and stores its three
// metrics under deploy.<kind>_*. A frame kind the link never carried leaves
// the metrics at 0.
func replayKind(layer map[string]float64, kind string, body []byte) (codecCost, *deploy.Message, error) {
	if body == nil {
		return codecCost{}, nil, nil
	}
	cost, msg, err := replayFrame(body)
	if err != nil {
		return codecCost{}, nil, fmt.Errorf("%s: %w", kind, err)
	}
	layer["deploy."+kind+"_encode_ns"] = cost.encodeNS
	layer["deploy."+kind+"_decode_ns"] = cost.decodeNS
	layer["deploy."+kind+"_bytes"] = cost.bytes
	return cost, msg, nil
}

// Package trace reads and writes the simulator's input series as CSV so
// that real traces — actual passenger counts, actual EU allowance quotes —
// can replace the synthetic generators without touching any algorithm code.
//
// Formats:
//
//   - Workload CSV: header "slot,edge0,edge1,...", one row per slot, integer
//     arrival counts M_i^t.
//   - Price CSV: header "slot,buy,sell", one row per slot, float prices with
//     sell < buy on every row.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"github.com/carbonedge/carbonedge/internal/market"
)

// WriteWorkload encodes a workload matrix (workload[t][i] = M_i^t) as CSV.
func WriteWorkload(w io.Writer, workload [][]int) error {
	if len(workload) == 0 {
		return fmt.Errorf("trace: empty workload")
	}
	edges := len(workload[0])
	if edges == 0 {
		return fmt.Errorf("trace: workload has no edges")
	}
	cw := csv.NewWriter(w)
	header := make([]string, edges+1)
	header[0] = "slot"
	for i := 0; i < edges; i++ {
		header[i+1] = "edge" + strconv.Itoa(i)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, edges+1)
	for t, counts := range workload {
		if len(counts) != edges {
			return fmt.Errorf("trace: slot %d has %d edges, want %d", t, len(counts), edges)
		}
		row[0] = strconv.Itoa(t)
		for i, m := range counts {
			row[i+1] = strconv.Itoa(m)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadWorkload decodes a workload CSV.
func ReadWorkload(r io.Reader) ([][]int, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: parse workload csv: %w", err)
	}
	if len(records) < 2 {
		return nil, fmt.Errorf("trace: workload csv needs a header and at least one row")
	}
	edges := len(records[0]) - 1
	if edges < 1 || records[0][0] != "slot" {
		return nil, fmt.Errorf("trace: bad workload header %v", records[0])
	}
	out := make([][]int, 0, len(records)-1)
	for rowIdx, rec := range records[1:] {
		if len(rec) != edges+1 {
			return nil, fmt.Errorf("trace: row %d has %d fields, want %d", rowIdx+1, len(rec), edges+1)
		}
		counts := make([]int, edges)
		for i := 0; i < edges; i++ {
			v, err := strconv.Atoi(rec[i+1])
			if err != nil {
				return nil, fmt.Errorf("trace: row %d edge %d: %w", rowIdx+1, i, err)
			}
			if v < 0 {
				return nil, fmt.Errorf("trace: row %d edge %d: negative count %d", rowIdx+1, i, v)
			}
			counts[i] = v
		}
		out = append(out, counts)
	}
	return out, nil
}

// WritePrices encodes a price series as CSV.
func WritePrices(w io.Writer, p *market.Prices) error {
	if p == nil || p.Horizon() == 0 {
		return fmt.Errorf("trace: empty price series")
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"slot", "buy", "sell"}); err != nil {
		return err
	}
	for t := 0; t < p.Horizon(); t++ {
		rec := []string{
			strconv.Itoa(t),
			strconv.FormatFloat(p.Buy[t], 'g', -1, 64),
			strconv.FormatFloat(p.Sell[t], 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadPrices decodes a price CSV, validating that every price is finite and
// positive and every sell price stays below its buy price (the structure the
// offline optimum relies on).
func ReadPrices(r io.Reader) (*market.Prices, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: parse price csv: %w", err)
	}
	if len(records) < 2 {
		return nil, fmt.Errorf("trace: price csv needs a header and at least one row")
	}
	if len(records[0]) != 3 || records[0][0] != "slot" {
		return nil, fmt.Errorf("trace: bad price header %v", records[0])
	}
	p := &market.Prices{
		Buy:  make([]float64, 0, len(records)-1),
		Sell: make([]float64, 0, len(records)-1),
	}
	for rowIdx, rec := range records[1:] {
		if len(rec) != 3 {
			return nil, fmt.Errorf("trace: row %d has %d fields, want 3", rowIdx+1, len(rec))
		}
		buy, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d buy: %w", rowIdx+1, err)
		}
		sell, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d sell: %w", rowIdx+1, err)
		}
		// ParseFloat accepts "NaN" and "Inf"; stated positively, so a NaN on
		// either side fails the check.
		if !(0 < sell && sell < buy && buy < math.Inf(1)) {
			return nil, fmt.Errorf("trace: row %d: invalid prices buy=%g sell=%g", rowIdx+1, buy, sell)
		}
		p.Buy = append(p.Buy, buy)
		p.Sell = append(p.Sell, sell)
	}
	return p, nil
}

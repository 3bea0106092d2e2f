package hotalloc_test

import (
	"testing"

	"github.com/carbonedge/carbonedge/internal/analysis/analyzertest"
	"github.com/carbonedge/carbonedge/internal/analysis/hotalloc"
)

func TestHotalloc(t *testing.T) {
	analyzertest.Run(t, hotalloc.Analyzer, "a")
}

func TestHotallocDispatch(t *testing.T) {
	analyzertest.Run(t, hotalloc.Analyzer, "dispatch")
}

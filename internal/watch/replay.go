package watch

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"rtmac/internal/telemetry"
)

// WriteAlertsJSONL writes alert transitions as JSON Lines, one alert per
// line — the machine-readable artifact `rtmacwatch -alerts` and the CI watch
// smoke job persist for offline triage.
func WriteAlertsJSONL(w io.Writer, alerts []Alert) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, a := range alerts {
		if err := enc.Encode(a); err != nil {
			return fmt.Errorf("watch: encode alert %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReplayJSONL streams a recorded event stream through the engine, one event
// at a time — unlike telemetry.DecodeJSONL it never materializes the stream
// in memory, so multi-gigabyte soak recordings replay in constant space. A
// leading schema header (written by telemetry.NewJSONL) is validated and
// skipped; headerless legacy streams replay as-is. Returns the number of
// events consumed.
func ReplayJSONL(r io.Reader, e *Engine) (int64, error) {
	return telemetry.ReadJSONL(r, telemetry.EventStreamSchema, telemetry.EventStreamVersion,
		"watch: decode event", func(ev telemetry.Event) error { e.Emit(ev); return nil })
}

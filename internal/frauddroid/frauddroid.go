// Package frauddroid reimplements the FraudDroid-like baseline of Section
// VI-C: AUI detection from UI *metadata* — resource id strings plus
// placement and size features — rather than pixels. The paper built this
// comparison by re-implementing FraudDroid's AdViewDetector and enriching
// its string features with AUI-related resource ids.
//
// The baseline's characteristic failure is exactly the one the paper
// measures: apps obfuscate their resource ids (or generate them
// dynamically), and without ids the heuristics lose almost all recall
// (14.4% in Table VI).
package frauddroid

import (
	"strings"

	"repro/internal/geom"
	"repro/internal/uikit"
)

// UPO-ish resource id substrings, the enriched string feature list
// (Section VI-C: "we enrich the UI string features by adding resource ids
// corresponding to the AUIs").
var upoPatterns = []string{
	"close", "skip", "later", "deny", "cancel", "dismiss", "no_thanks", "btn_x",
}

// AGO-ish / AUI-context resource id substrings.
var contextPatterns = []string{
	"ad_", "ads_", "promo", "packet", "upgrade", "rate", "allow",
	"buy", "install", "join", "action", "reward", "lucky",
}

// The placement and size features, as fractions of the screen's area.
const (
	// maxUPOFrac is the most a UPO-ish view may cover.
	maxUPOFrac = 0.01
	// minAGOFrac is the least a clickable surface must cover to count as a
	// large app-guided one.
	minAGOFrac = 0.18
)

// Result is one flagged screen.
type Result struct {
	// IsAUI reports the screen was flagged.
	IsAUI bool
	// UPOs are the rectangles of the flagged user-preferred options.
	UPOs []geom.Rect
	// MatchedIDs records which resource ids triggered the detection,
	// for debugging and the paper's manual-review step.
	MatchedIDs []string
}

func matchesAny(id string, patterns []string) bool {
	id = strings.ToLower(id)
	for _, p := range patterns {
		if strings.Contains(id, p) {
			return true
		}
	}
	return false
}

// Detect applies the id + placement heuristics to a view dump. screen is the
// full screen rectangle (for area fractions).
func Detect(views []uikit.ViewInfo, screen geom.Rect) Result {
	var res Result
	screenArea := float64(screen.Area())
	if screenArea == 0 {
		return res
	}
	// Placement feature: does a large app-guided surface exist?
	contextPresent := false
	for _, v := range views {
		big := v.Clickable && float64(v.Bounds.Area())/screenArea >= minAGOFrac
		if big || matchesAny(v.ID, contextPatterns) {
			contextPresent = true
			break
		}
	}
	if !contextPresent {
		return res
	}
	// String + size feature: small clickable views with UPO-ish ids.
	for _, v := range views {
		if !v.Clickable || v.ID == "" {
			continue
		}
		if !matchesAny(v.ID, upoPatterns) {
			continue
		}
		if float64(v.Bounds.Area())/screenArea > maxUPOFrac {
			continue
		}
		res.IsAUI = true
		res.UPOs = append(res.UPOs, v.Bounds)
		res.MatchedIDs = append(res.MatchedIDs, v.ID)
	}
	return res
}

// DetectScreen is a convenience wrapper dumping the screen's views first.
func DetectScreen(s *uikit.Screen) Result {
	return Detect(s.DumpViews(), s.Bounds())
}

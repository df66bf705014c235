// Package a11y simulates the Android Accessibility Service (AS) surface that
// DARPA is built on: the 23 accessibility event types, subscription by event
// mask, real-time screenshots of the composited screen,
// system-alert overlay windows (WindowManager.addView), gesture injection,
// and the anchor-view trick used for decoration calibration.
//
// The simulation preserves the paper's two load-bearing constraints:
//
//   - Cross-app isolation: a service never receives foreign view objects.
//     It observes events (type + package only), pixels (TakeScreenshot) and
//     window geometry — exactly the API surface of real AS.
//   - Event storms: apps emit high-frequency UI-update events, so analysing
//     every event is infeasible (Section IV-B); the cut-off debounce lives
//     in the DARPA core on top of this package.
package a11y

import "fmt"

// EventType identifies one accessibility event class. The values mirror the
// bit masks of android.view.accessibility.AccessibilityEvent.
type EventType int

// The 23 accessibility event types DARPA registers for (Section V,
// "Event registration").
const (
	TypeViewClicked                  EventType = 0x00000001
	TypeViewLongClicked              EventType = 0x00000002
	TypeViewSelected                 EventType = 0x00000004
	TypeViewFocused                  EventType = 0x00000008
	TypeViewTextChanged              EventType = 0x00000010
	TypeWindowStateChanged           EventType = 0x00000020
	TypeNotificationStateChanged     EventType = 0x00000040
	TypeViewHoverEnter               EventType = 0x00000080
	TypeViewHoverExit                EventType = 0x00000100
	TypeTouchExplorationGestureStart EventType = 0x00000200
	TypeTouchExplorationGestureEnd   EventType = 0x00000400
	TypeWindowContentChanged         EventType = 0x00000800
	TypeViewScrolled                 EventType = 0x00001000
	TypeViewTextSelectionChanged     EventType = 0x00002000
	TypeAnnouncement                 EventType = 0x00004000
	TypeViewAccessibilityFocused     EventType = 0x00008000
	TypeViewAccessibilityFocusClear  EventType = 0x00010000
	TypeTouchInteractionStart        EventType = 0x00020000
	TypeTouchInteractionEnd          EventType = 0x00040000
	TypeGestureDetectionStart        EventType = 0x00080000
	TypeGestureDetectionEnd          EventType = 0x00100000
	TypeWindowsChanged               EventType = 0x00400000
	TypeViewContextClicked           EventType = 0x00800000
)

// TypeAllMask subscribes to every event type, the registration DARPA uses.
const TypeAllMask EventType = TypeViewClicked | TypeViewLongClicked |
	TypeViewSelected | TypeViewFocused | TypeViewTextChanged |
	TypeWindowStateChanged | TypeNotificationStateChanged |
	TypeViewHoverEnter | TypeViewHoverExit |
	TypeTouchExplorationGestureStart | TypeTouchExplorationGestureEnd |
	TypeWindowContentChanged | TypeViewScrolled |
	TypeViewTextSelectionChanged | TypeAnnouncement |
	TypeViewAccessibilityFocused | TypeViewAccessibilityFocusClear |
	TypeTouchInteractionStart | TypeTouchInteractionEnd |
	TypeGestureDetectionStart | TypeGestureDetectionEnd |
	TypeWindowsChanged | TypeViewContextClicked

// AllTypes lists the 23 event types in ascending mask order.
var AllTypes = []EventType{
	TypeViewClicked, TypeViewLongClicked, TypeViewSelected, TypeViewFocused,
	TypeViewTextChanged, TypeWindowStateChanged, TypeNotificationStateChanged,
	TypeViewHoverEnter, TypeViewHoverExit, TypeTouchExplorationGestureStart,
	TypeTouchExplorationGestureEnd, TypeWindowContentChanged, TypeViewScrolled,
	TypeViewTextSelectionChanged, TypeAnnouncement, TypeViewAccessibilityFocused,
	TypeViewAccessibilityFocusClear, TypeTouchInteractionStart,
	TypeTouchInteractionEnd, TypeGestureDetectionStart, TypeGestureDetectionEnd,
	TypeWindowsChanged, TypeViewContextClicked,
}

var typeNames = map[EventType]string{
	TypeViewClicked:                  "TYPE_VIEW_CLICKED",
	TypeViewLongClicked:              "TYPE_VIEW_LONG_CLICKED",
	TypeViewSelected:                 "TYPE_VIEW_SELECTED",
	TypeViewFocused:                  "TYPE_VIEW_FOCUSED",
	TypeViewTextChanged:              "TYPE_VIEW_TEXT_CHANGED",
	TypeWindowStateChanged:           "TYPE_WINDOW_STATE_CHANGED",
	TypeNotificationStateChanged:     "TYPE_NOTIFICATION_STATE_CHANGED",
	TypeViewHoverEnter:               "TYPE_VIEW_HOVER_ENTER",
	TypeViewHoverExit:                "TYPE_VIEW_HOVER_EXIT",
	TypeTouchExplorationGestureStart: "TYPE_TOUCH_EXPLORATION_GESTURE_START",
	TypeTouchExplorationGestureEnd:   "TYPE_TOUCH_EXPLORATION_GESTURE_END",
	TypeWindowContentChanged:         "TYPE_WINDOW_CONTENT_CHANGED",
	TypeViewScrolled:                 "TYPE_VIEW_SCROLLED",
	TypeViewTextSelectionChanged:     "TYPE_VIEW_TEXT_SELECTION_CHANGED",
	TypeAnnouncement:                 "TYPE_ANNOUNCEMENT",
	TypeViewAccessibilityFocused:     "TYPE_VIEW_ACCESSIBILITY_FOCUSED",
	TypeViewAccessibilityFocusClear:  "TYPE_VIEW_ACCESSIBILITY_FOCUS_CLEARED",
	TypeTouchInteractionStart:        "TYPE_TOUCH_INTERACTION_START",
	TypeTouchInteractionEnd:          "TYPE_TOUCH_INTERACTION_END",
	TypeGestureDetectionStart:        "TYPE_GESTURE_DETECTION_START",
	TypeGestureDetectionEnd:          "TYPE_GESTURE_DETECTION_END",
	TypeWindowsChanged:               "TYPE_WINDOWS_CHANGED",
	TypeViewContextClicked:           "TYPE_VIEW_CONTEXT_CLICKED",
}

// String returns the Android constant name for the event type.
func (t EventType) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("TYPE_UNKNOWN(0x%08x)", int(t))
}

package ec

// RaceEnabled lets the external tests scale down under the race detector.
const RaceEnabled = raceEnabled

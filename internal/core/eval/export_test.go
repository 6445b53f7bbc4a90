package eval

// PossibleSizes is possibleSizes for the external tests: the record counts
// an incident of a pattern can have.
var PossibleSizes = possibleSizes

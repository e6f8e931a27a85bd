package isomorph

// Hooks for the external tests (mapping_cold_test.go), which run whole
// syntheses and so cannot live in this package.

// FindFullMappingReference is the pre-scratch FindFullMapping.
var FindFullMappingReference = findFullMappingReference

// SetNewTableHook makes NewTable hand every table it makes to f; nil
// removes the hook.
func SetNewTableHook(f func(*Table)) { testHookNewTable = f }

// Searched returns the (representative, member) id pairs Classes has
// searched, with the mapping it found, nil where it found none.
func (t *Table) Searched() map[[2]int]*Mapping { return t.found }

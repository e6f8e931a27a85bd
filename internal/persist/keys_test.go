package persist

import "syccl/internal/isomorph"

// compositeKeys is the crash/corruption harness's name for the shared
// key pair; the store itself calls isomorph.CacheKeys.
var compositeKeys = isomorph.CacheKeys

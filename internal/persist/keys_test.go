package persist

import "syccl/internal/isomorph"

// cacheKey is the crash/corruption harness's name for the key an entry
// is addressed by; the store itself calls isomorph.CacheKey.
var cacheKey = isomorph.CacheKey

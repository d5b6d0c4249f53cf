#include "dht/backward_batch.h"

namespace dhtjoin {

// The 8-lane engine is the only width the library instantiates; keeping
// the definitions here spares every including TU the template
// instantiation cost.
template class BackwardWalkerBatchT<8>;

}  // namespace dhtjoin

#include "fold_impl.hpp"

FPNA_FOLD_TABLES(Vectorized)

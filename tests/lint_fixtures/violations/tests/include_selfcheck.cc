// Fixture selfcheck TU: lists src/fallible.h and src/test_only_header.h but
// not src/missing.h, so the include-selfcheck rule must flag exactly the
// missing one.
#include "src/fallible.h"
#include "src/test_only_header.h"

package scheme

// Prelude exposes the Scheme prelude to the external test package.
const Prelude = prelude

// CoreOnly exposes the expanded-output check FuzzExpand applies.
var CoreOnly = coreOnly

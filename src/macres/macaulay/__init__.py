from .assembly import (
    DegenerateSystemError,
    MacaulayAssembly,
    ResultantValue,
    build_assembly,
    classical_macaulay,
    full_assembly,
    resultant_generic,
    resultant_specialized,
    sign_normalization,
)

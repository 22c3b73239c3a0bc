# Trace sweeps must fold write energy exactly as kernel sweeps do:
# `memx_cli explore --trace <din> --write-energy` has to print different
# energies than the same run without the flag when the trace has writes.
#
#   cmake -DCLI=<memx_cli> -DTRACE=<trace.din> -P trace_write_energy_smoke.cmake
foreach(var CLI TRACE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

execute_process(COMMAND ${CLI} explore --trace ${TRACE}
                OUTPUT_VARIABLE plain RESULT_VARIABLE plain_rc)
execute_process(COMMAND ${CLI} explore --trace ${TRACE} --write-energy
                OUTPUT_VARIABLE with_writes RESULT_VARIABLE writes_rc)
if(NOT plain_rc EQUAL 0 OR NOT writes_rc EQUAL 0)
  message(FATAL_ERROR "memx_cli failed (exit ${plain_rc} / ${writes_rc})")
endif()
if(plain STREQUAL with_writes)
  message(FATAL_ERROR "--write-energy left the trace sweep unchanged:\n"
                      "${plain}")
endif()

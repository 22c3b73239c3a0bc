# A directory passed as a trace must fail, naming the path: `simulate`
# and `explore` used to stream it as an empty trace, print zero counts
# and exit 0.
#
#   cmake -DCLI=<memx_cli> -DDIR=<directory> -P trace_directory_smoke.cmake
foreach(var CLI DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

foreach(cmd "simulate;--trace;${DIR};--cache;C32L8S1"
            "explore;--trace;${DIR};--csv")
  execute_process(COMMAND ${CLI} ${cmd}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(rc EQUAL 0)
    message(FATAL_ERROR "memx_cli ${cmd} exited 0 on a directory:\n${out}")
  endif()
  string(FIND "${err}" "${DIR}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "memx_cli ${cmd} did not name ${DIR}:\n${err}")
  endif()
endforeach()
